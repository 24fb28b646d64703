package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
)

// snapshotFormat is the layout every snapshot is written in. Formats 1
// (one JSON frame carrying every architecture inline) and 2 (one frame
// per architecture carrying every copy) are still read, never written.
const snapshotFormat = 3

// wearBytes is the width of one switch across the three wear columns:
// wear as float64 bits, actuations, fail cycle, each a u64le.
const wearBytes = 24

// snapshotHeader is the first frame of a snap-*.snap file. In formats 2
// and 3 it holds only the header, and ArchCount architecture frames
// follow it. In format 1 it was the file's only frame, with every
// architecture inline in Archs.
type snapshotHeader struct {
	Format           int            `json:"format"`
	Epoch            uint64         `json:"epoch"` // first segment NOT covered
	CreatedUnixNanos int64          `json:"created_unix_nanos"`
	ArchCount        int            `json:"arch_count"`
	Archs            []snapshotArch `json:"archs,omitempty"` // format 1 only
}

// snapshotArch is one architecture inside a snapshot: the provisioning
// triple that deterministically rebuilds the hardware, plus the exact
// mutable wear state to overlay on it.
type snapshotArch struct {
	ID     string     `json:"id"`
	Seed   uint64     `json:"seed"`
	Secret []byte     `json:"secret"`
	Design dse.Design `json:"design"`
	State  core.State `json:"state"`
	// Spares and RemapEpoch pin the wear-leveling variant; both zero means
	// the architecture is unleveled.
	Spares     int    `json:"spares,omitempty"`
	RemapEpoch uint64 `json:"remap_epoch,omitempty"`
	// Switches is the switch count of each copy the frame carries — every
	// copy in format 2, the touched ones in format 3: the shape of the
	// wear columns that stand in for State.Copies.
	Switches []int `json:"switches,omitempty"`
	// Touched lists, ascending, the copies a format-3 frame carries: those
	// whose state differs from what RebuildArch fabricates. Every other
	// copy restores as fabricated. Switches and the State.Assign and
	// State.Retired entries are aligned with Touched.
	Touched []int `json:"touched,omitempty"`
}

// leveled reports whether the architecture is the wear-leveled variant,
// by the rule RebuildArch applies.
func (a *snapshotArch) leveled() bool { return a.Spares > 0 || a.RemapEpoch > 0 }

// captureArch records one registry entry for a snapshot.
func captureArch(e *registry.Entry) snapshotArch {
	sa := snapshotArch{
		ID: e.ID, Seed: e.Seed, Secret: e.Secret,
		Design: e.Arch.Design(), State: e.Arch.State(),
	}
	if lv, ok := e.Arch.Leveling(); ok {
		sa.Spares = lv.Spares
		sa.RemapEpoch = lv.Epoch
	}
	return sa
}

// encodeSnapshot lays out a format-3 snapshot file: the JSON header
// frame, then one frame per architecture whose payload is
//
//	[meta len u32le][meta JSON][wear f64 bits × S][actuated × S][fail cycle × S]
//
// Only the copies in Touched (see touchedCopies) are written: S is their
// switch count, in order, and meta is the snapshotArch with State.Copies
// replaced by Touched and Switches and State.Assign and State.Retired cut
// to the touched copies. Only the wear is binary: it is nearly all of the
// bytes and nearly all of the decode time as JSON, while the header and
// every metadata part stay readable with jq. Every frame must fit the
// frame cap, or the snapshot is refused.
func encodeSnapshot(hdr snapshotHeader, archs []snapshotArch) ([]byte, error) {
	hdr.ArchCount = len(archs)
	head, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding snapshot header: %w", err)
	}
	metas := make([][]byte, len(archs))
	touched := make([][]int, len(archs))
	size := frameHeader + len(head)
	for i := range archs {
		m := archs[i]
		touched[i] = touchedCopies(m.State)
		m.Touched = touched[i]
		m.Switches = make([]int, len(m.Touched))
		for j, ci := range m.Touched {
			m.Switches[j] = len(m.State.Copies[ci])
			size += wearBytes * m.Switches[j]
		}
		if m.State.Assign != nil {
			m.State.Assign, m.State.Retired = pick(m.State.Assign, m.Touched), pick(m.State.Retired, m.Touched)
		}
		m.State.Copies = nil
		if metas[i], err = json.Marshal(m); err != nil {
			return nil, fmt.Errorf("wal: encoding snapshot arch %s: %w", m.ID, err)
		}
		size += frameHeader + 4 + len(metas[i])
	}
	buf, err := appendFrame(make([]byte, 0, size), head)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot header: %w", err)
	}
	var payload []byte
	for i := range archs {
		copies := pick(archs[i].State.Copies, touched[i])
		payload = binary.LittleEndian.AppendUint32(payload[:0], uint32(len(metas[i])))
		payload = append(payload, metas[i]...)
		for _, sw := range copies {
			for _, s := range sw {
				payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(s.Wear))
			}
		}
		for _, sw := range copies {
			for _, s := range sw {
				payload = binary.LittleEndian.AppendUint64(payload, s.Actuated)
			}
		}
		for _, sw := range copies {
			for _, s := range sw {
				payload = binary.LittleEndian.AppendUint64(payload, s.FailCycle)
			}
		}
		if buf, err = appendFrame(buf, payload); err != nil {
			return nil, fmt.Errorf("wal: snapshot arch %s: %w", archs[i].ID, err)
		}
	}
	return buf, nil
}

// touchedCopies returns, ascending, the copies of st that differ from
// what RebuildArch fabricates: a copy with any switch whose wear,
// actuation count or fail cycle is non-zero, or a leveled copy whose
// remap table is not the identity or that has retired a switch. Leaving
// the others out refunds nothing: a fresh build reproduces each of them
// bit for bit, which is exactly what restoring it would write.
func touchedCopies(st core.State) []int {
	var touched []int
	for ci := range st.Copies {
		if copyTouched(st, ci) {
			touched = append(touched, ci)
		}
	}
	return touched
}

func copyTouched(st core.State, ci int) bool {
	for _, s := range st.Copies[ci] {
		if math.Float64bits(s.Wear) != 0 || s.Actuated != 0 || s.FailCycle != 0 {
			return true
		}
	}
	if st.Assign == nil {
		return false
	}
	for i, p := range st.Assign[ci] {
		if p != i {
			return true
		}
	}
	return len(st.Retired[ci]) > 0
}

// pick returns the entries of per-copy table xs at the given copies.
func pick[T any](xs []T, copies []int) []T {
	out := make([]T, len(copies))
	for j, ci := range copies {
		out[j] = xs[ci]
	}
	return out
}

// decodeArchFrame decodes one format-2 or format-3 architecture frame
// payload into a snapshotArch whose State has one entry per copy. The
// column length must match the declared copy shape exactly. A format-3
// frame's untouched copies get nil entries, which core.Restore keeps as
// fabricated; a format-2 frame must carry every copy.
func decodeArchFrame(payload []byte, format int) (*snapshotArch, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%d-byte architecture frame has no metadata length", len(payload))
	}
	n := uint64(binary.LittleEndian.Uint32(payload))
	if n > uint64(len(payload)-4) {
		return nil, fmt.Errorf("metadata length %d overruns the %d-byte frame", n, len(payload))
	}
	a := new(snapshotArch)
	if err := json.Unmarshal(payload[4:4+n], a); err != nil {
		return nil, fmt.Errorf("architecture metadata is not valid JSON: %v", err)
	}
	if format == snapshotFormat {
		if err := a.checkTouched(); err != nil {
			return nil, err
		}
	}
	cols := payload[4+n:]
	limit, total := len(cols)/wearBytes, 0
	for _, k := range a.Switches {
		if k < 0 || k > limit-total {
			total = -1
			break
		}
		total += k
	}
	if total < 0 || wearBytes*total != len(cols) {
		return nil, fmt.Errorf("%s: wear columns hold %d bytes, which is not %d per switch of its %d-copy shape",
			a.ID, len(cols), wearBytes, len(a.Switches))
	}
	wear, act, fail := cols[:8*total], cols[8*total:16*total], cols[16*total:]
	flat := make([]nems.State, total)
	for i := range flat {
		flat[i] = nems.State{
			Wear:      math.Float64frombits(binary.LittleEndian.Uint64(wear[8*i:])),
			Actuated:  binary.LittleEndian.Uint64(act[8*i:]),
			FailCycle: binary.LittleEndian.Uint64(fail[8*i:]),
		}
	}
	copies := make([][]nems.State, len(a.Switches))
	for j, k := range a.Switches {
		copies[j], flat = flat[:k:k], flat[k:]
	}
	if format != snapshotFormat {
		a.State.Copies = copies
		return a, checkDense(a.ID, a.State)
	}
	st := &a.State
	st.Copies = spread(copies, a.Touched, a.Design.Copies)
	if a.leveled() {
		st.Assign = spread(st.Assign, a.Touched, a.Design.Copies)
		st.Retired = spread(st.Retired, a.Touched, a.Design.Copies)
	}
	return a, nil
}

// checkTouched validates a format-3 frame's sparse shape before its
// columns are read: Touched ascends without repeats inside the design's
// copies, and Switches and (leveled) the remap tables and retirement
// sets hold one entry per touched copy, as (unleveled) they hold none.
func (a *snapshotArch) checkTouched() error {
	if a.Design.Copies < 1 {
		return fmt.Errorf("%s: design has %d copies", a.ID, a.Design.Copies)
	}
	prev := -1
	for _, ci := range a.Touched {
		if ci <= prev || ci >= a.Design.Copies {
			return fmt.Errorf("%s: touched copies %v do not ascend inside the design's %d copies",
				a.ID, a.Touched, a.Design.Copies)
		}
		prev = ci
	}
	if len(a.Switches) != len(a.Touched) {
		return fmt.Errorf("%s: %d switch counts for %d touched copies", a.ID, len(a.Switches), len(a.Touched))
	}
	tables := 0
	if a.leveled() {
		tables = len(a.Touched)
	}
	if len(a.State.Assign) != tables || len(a.State.Retired) != tables {
		return fmt.Errorf("%s: %d remap tables and %d retirement sets, want %d for %d touched copies",
			a.ID, len(a.State.Assign), len(a.State.Retired), tables, len(a.Touched))
	}
	return nil
}

// spread places the touched copies' entries at their copy indices of a
// per-copy table of length copies; every other entry stays nil, "as
// fabricated" to core.Restore.
func spread[T any](xs []T, touched []int, copies int) []T {
	out := make([]T, copies)
	for j, ci := range touched {
		out[ci] = xs[j]
	}
	return out
}

// checkDense refuses a format-1 or format-2 state with a nil per-copy
// switch or remap entry. Those formats carry every copy, so such an
// entry is damage — a shape error before core.Restore read nil as "as
// fabricated", and it still is.
func checkDense(id string, st core.State) error {
	for ci, sw := range st.Copies {
		if sw == nil {
			return fmt.Errorf("%s: copy %d has no switch states", id, ci)
		}
	}
	for ci, as := range st.Assign {
		if as == nil {
			return fmt.Errorf("%s: copy %d has no remap table", id, ci)
		}
	}
	return nil
}

// restoreSnapshot loads the snapshot for epoch into reg. Every frame's
// CRC is checked before anything is decoded; the architectures are then
// decoded and rebuilt on GOMAXPROCS workers and registered serially in
// snapshot order, so IDs, the mint sequence and the first reported
// error do not depend on scheduling.
func (s *DiskStore) restoreSnapshot(reg *registry.Registry, epoch uint64) (snapshotHeader, error) {
	var hdr snapshotHeader
	name := snapName(epoch)
	data, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return hdr, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	var frames [][]byte
	var offs []int64
	off := int64(0)
	good, torn, err := scanFrames(name, data, func(payload []byte) error {
		frames, offs = append(frames, payload), append(offs, off)
		off += frameHeader + int64(len(payload))
		return nil
	})
	if err != nil {
		return hdr, err
	}
	// Snapshots are written to a temp file and atomically renamed, so a
	// torn or empty snapshot cannot come from a crash — only from damage.
	if torn > 0 || len(frames) == 0 {
		return hdr, &CorruptionError{File: name, Record: len(frames), Offset: good,
			Reason: "snapshot file is incomplete"}
	}
	if err := json.Unmarshal(frames[0], &hdr); err != nil {
		return hdr, &CorruptionError{File: name, Record: 0, Offset: 0,
			Reason: "snapshot header is not valid JSON: " + err.Error()}
	}
	switch hdr.Format {
	case 1:
		if len(frames) > 1 {
			return hdr, &CorruptionError{File: name, Record: 1, Offset: offs[1],
				Reason: "format-1 snapshot holds more than one frame"}
		}
		hdr.ArchCount = len(hdr.Archs)
	case 2, snapshotFormat:
		if n := len(frames) - 1; hdr.ArchCount != n {
			ce := &CorruptionError{File: name, Record: 0, Offset: 0,
				Reason: fmt.Sprintf("header declares %d architectures, the file holds %d", hdr.ArchCount, n)}
			switch {
			case hdr.ArchCount >= 0 && hdr.ArchCount < n: // the first extra frame
				ce.Record, ce.Offset = hdr.ArchCount+1, offs[hdr.ArchCount+1]
			case hdr.ArchCount > n: // where the first missing frame belongs
				ce.Record, ce.Offset = len(frames), good
			}
			return hdr, ce
		}
	default:
		return hdr, fmt.Errorf("wal: snapshot %s has unknown format %d", name, hdr.Format)
	}
	if hdr.Epoch != epoch {
		return hdr, &CorruptionError{File: name, Record: 0, Offset: 0,
			Reason: fmt.Sprintf("snapshot declares epoch %d but is named for epoch %d", hdr.Epoch, epoch)}
	}

	// where locates architecture i's frame for error reports.
	where := func(i int) (int, int64) {
		if hdr.Format == 1 {
			return 0, 0
		}
		return i + 1, offs[i+1]
	}
	decode := func(i int) (a *snapshotArch, err error) {
		if hdr.Format == 1 {
			a = &hdr.Archs[i]
			err = checkDense(a.ID, a.State)
		} else {
			a, err = decodeArchFrame(frames[i+1], hdr.Format)
		}
		if err != nil {
			rec, off := where(i)
			return nil, &CorruptionError{File: name, Record: rec, Offset: off, Reason: err.Error()}
		}
		return a, nil
	}
	archs := rebuildArchs(hdr.ArchCount, func(i int) rebuiltArch {
		a, err := decode(i)
		if err != nil {
			return rebuiltArch{err: err}
		}
		arch, err := registry.RebuildArch(a.Design, a.Secret, a.Seed, a.Spares, a.RemapEpoch)
		if err != nil {
			return rebuiltArch{err: fmt.Errorf("wal: snapshot arch %s: rebuild: %w", a.ID, err)}
		}
		//lemonvet:allow logahead restoring state that is already durable in the snapshot; no new wear is minted
		if err := arch.Restore(a.State); err != nil {
			return rebuiltArch{err: fmt.Errorf("wal: snapshot arch %s: %w", a.ID, err)}
		}
		return rebuiltArch{id: a.ID, seed: a.Seed, secret: a.Secret, arch: arch}
	})
	for i := range archs {
		r := &archs[i]
		if r.err != nil {
			return hdr, r.err
		}
		if _, dup := reg.Get(r.id); dup {
			rec, off := where(i)
			return hdr, &CorruptionError{File: name, Record: rec, Offset: off,
				Reason: fmt.Sprintf("duplicate architecture id %s", r.id)}
		}
		if _, err := reg.Restore(r.id, r.arch, r.seed, r.secret); err != nil {
			return hdr, fmt.Errorf("wal: snapshot arch %s: %w", r.id, err)
		}
	}
	return hdr, nil
}

// rebuiltArch is one snapshot architecture refabricated with its wear
// state overlaid, ready to register — or the error that stopped it.
type rebuiltArch struct {
	id     string
	seed   uint64
	secret []byte
	arch   *core.Architecture
	err    error
}

// rebuildArchs runs rebuild for every index in [0, n) on GOMAXPROCS
// workers and returns the results in index order, so a caller walking
// them meets the same first error however the work was scheduled.
func rebuildArchs(n int, rebuild func(i int) rebuiltArch) []rebuiltArch {
	out := make([]rebuiltArch, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				out[i] = rebuild(int(i))
			}
		}()
	}
	wg.Wait()
	return out
}
