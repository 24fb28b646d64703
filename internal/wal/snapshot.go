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

// snapshotFormat is the layout every snapshot is written in. Format 1 —
// one JSON frame carrying every architecture inline — is still read,
// never written.
const snapshotFormat = 2

// wearBytes is the width of one switch across the three wear columns:
// wear as float64 bits, actuations, fail cycle, each a u64le.
const wearBytes = 24

// snapshotHeader is the first frame of a snap-*.snap file. In format 2
// it holds only the header, and ArchCount architecture frames follow it.
// In format 1 it was the file's only frame, with every architecture
// inline in Archs.
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
	// Switches is the per-copy switch count of a format-2 frame: the shape
	// of the wear columns that stand in for State.Copies.
	Switches []int `json:"switches,omitempty"`
}

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

// encodeSnapshot lays out a format-2 snapshot file: the JSON header
// frame, then one frame per architecture whose payload is
//
//	[meta len u32le][meta JSON][wear f64 bits × S][actuated × S][fail cycle × S]
//
// S is the architecture's switch count over all copies in order, and
// meta is its snapshotArch with State.Copies replaced by Switches. Only
// the wear is binary: it is nearly all of the bytes and nearly all of
// the decode time as JSON, while the header and every metadata part stay
// readable with jq. Every frame must fit the frame cap, or the snapshot
// is refused.
func encodeSnapshot(hdr snapshotHeader, archs []snapshotArch) ([]byte, error) {
	hdr.ArchCount = len(archs)
	head, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding snapshot header: %w", err)
	}
	metas := make([][]byte, len(archs))
	size := frameHeader + len(head)
	for i := range archs {
		m := archs[i]
		m.Switches = make([]int, len(m.State.Copies))
		for ci, sw := range m.State.Copies {
			m.Switches[ci] = len(sw)
			size += wearBytes * len(sw)
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
		copies := archs[i].State.Copies
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

// decodeArchFrame decodes one format-2 architecture frame payload. The
// column length must match the declared copy shape exactly.
func decodeArchFrame(payload []byte) (*snapshotArch, error) {
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
	a.State.Copies = make([][]nems.State, len(a.Switches))
	for ci, k := range a.Switches {
		a.State.Copies[ci], flat = flat[:k:k], flat[k:]
	}
	return a, nil
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
	case snapshotFormat:
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
	decode := func(i int) (*snapshotArch, error) {
		if hdr.Format == 1 {
			return &hdr.Archs[i], nil
		}
		a, err := decodeArchFrame(frames[i+1])
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
		arch, err := rebuildArch(a.Design, a.Secret, a.Seed, a.Spares, a.RemapEpoch)
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
