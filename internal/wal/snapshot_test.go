package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/metrics"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// buildFleetArch fabricates architecture i of a test fleet: seed
// testSeed+i, every third one wear-leveled.
func buildFleetArch(tb testing.TB, d dse.Design, i int) *core.Architecture {
	tb.Helper()
	var arch *core.Architecture
	var err error
	if i%3 == 1 {
		arch, err = core.BuildLeveled(d, testSecret(), testLeveling(), rng.New(uint64(testSeed+i)))
	} else {
		arch, err = core.Build(d, testSecret(), rng.New(uint64(testSeed+i)))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return arch
}

// playFleet plays ops [from, from+n) of the crash-test schedules into
// every entry: the mixed attack schedule on leveled ones, the access
// schedule on the rest.
func playFleet(t *testing.T, entries []*registry.Entry, from, n int) {
	t.Helper()
	for _, e := range entries {
		if _, ok := e.Arch.Leveling(); ok {
			driveLeveled(t, e, from, n)
		} else {
			driveFrom(t, e, from, from+n)
		}
	}
}

// snapshotFleet writes a data directory in dir: n LAB-30 architectures
// (see buildFleetArch) provisioned through a store, 6 operations each,
// a snapshot, then suffix more operations each in the following segment.
// It returns every architecture's final state.
func snapshotFleet(t *testing.T, dir string, n, suffix int) map[string]core.State {
	t.Helper()
	st := openStore(t, dir, 0)
	reg := registry.NewWithStore(4, st)
	if _, err := st.Recover(reg); err != nil {
		t.Fatal(err)
	}
	d := testDesign(t)
	var entries []*registry.Entry
	for i := 0; i < n; i++ {
		e, err := reg.Provision(buildFleetArch(t, d, i), uint64(testSeed+i), testSecret())
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	playFleet(t, entries, 0, 6)
	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	playFleet(t, entries, 6, suffix)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return archStates(reg)
}

// copyDir copies the regular files of src into a fresh temp directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverSnapshotBytes recovers a fresh directory holding data as its
// only file, the snapshot for epoch 2.
func recoverSnapshotBytes(t *testing.T, data []byte) (*registry.Registry, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	reg := registry.NewWithStore(1, st)
	if _, err := st.Recover(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

// snapFrames splits a snapshot file into its frame payloads.
func snapFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	if _, torn, err := scanFrames("snap", data, func(p []byte) error {
		frames = append(frames, append([]byte(nil), p...))
		return nil
	}); err != nil || torn != 0 {
		t.Fatalf("scanning snapshot: torn %d, %v", torn, err)
	}
	return frames
}

// joinFrames frames payloads back into a snapshot file with fresh CRCs.
func joinFrames(t *testing.T, frames [][]byte) []byte {
	t.Helper()
	var out []byte
	for _, p := range frames {
		var err error
		if out, err = appendFrame(out, p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// editHeader rewrites a header frame through edit.
func editHeader(t *testing.T, p []byte, edit func(*snapshotHeader)) []byte {
	t.Helper()
	var h snapshotHeader
	if err := json.Unmarshal(p, &h); err != nil {
		t.Fatal(err)
	}
	edit(&h)
	out, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// editMeta rewrites the metadata part of an architecture frame through
// edit, keeping its wear columns byte for byte.
func editMeta(t *testing.T, p []byte, edit func(*snapshotArch)) []byte {
	t.Helper()
	n := binary.LittleEndian.Uint32(p)
	var m snapshotArch
	if err := json.Unmarshal(p[4:4+n], &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	meta, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(meta)))
	return append(append(out, meta...), p[4+n:]...)
}

// wearEveryCopy overlays one hot actuation's wear on every switch of
// every copy of a fresh architecture, standing in for a long history:
// every copy then differs from a fresh build, so a snapshot carries all
// of them.
func wearEveryCopy(tb testing.TB, arch *core.Architecture) {
	tb.Helper()
	st := arch.State()
	for _, sw := range st.Copies {
		for i := range sw {
			sw[i] = nems.State{Wear: 2, Actuated: 1}
		}
	}
	if err := arch.Restore(st); err != nil {
		tb.Fatal(err)
	}
}

// TestSnapshotOverFrameCap is the regression for snapshots larger than
// the 16 MiB frame cap, which a single-frame snapshot wrote and recovery
// then refused: 96 paper-point architectures, every copy of each worn,
// snapshot, restart and recover with identical state.
func TestSnapshotOverFrameCap(t *testing.T) {
	d, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         1000,
		KFrac:       0.1,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	reg := registry.NewWithStore(4, st)
	if _, err := st.Recover(reg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 96; i++ {
		arch := buildFleetArch(t, d, i)
		wearEveryCopy(t, arch)
		e, err := reg.Provision(arch, uint64(testSeed+i), testSecret())
		if err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			driveFrom(t, e, 0, 3)
		}
	}
	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= maxRecordLen {
		t.Fatalf("snapshot is %d bytes; the fleet must exceed the %d-byte frame cap to cover the bug", fi.Size(), maxRecordLen)
	}

	reg2, _, stats := recoverInto(t, dir)
	if stats.SnapshotEpoch != 2 || stats.SnapshotArchitectures != 96 || stats.ReplayedRecords() != 0 {
		t.Fatalf("recovery stats %+v: want a pure snapshot recovery of 96 architectures", stats)
	}
	if !reflect.DeepEqual(archStates(reg2), archStates(reg)) {
		t.Fatal("recovered fleet state differs from the snapshotted one")
	}
}

// TestAppendRefusesOversizedRecord: a record whose frame would exceed
// the cap is refused before anything is written, and the store keeps
// appending.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	reg, e := provisionVia(t, st)
	huge := registry.Record{Provision: &registry.ProvisionRecord{
		ID: "arch-000002", Seed: 1, Secret: make([]byte, maxRecordLen), Design: e.Arch.Design(),
	}}
	if _, err := st.Append([]registry.Record{huge}); err == nil {
		t.Fatal("Append accepted a record over the frame cap")
	}
	drive(t, e, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reg2, _, stats := recoverInto(t, dir)
	if stats.ReplayedProvisions != 1 || stats.ReplayedAccesses != 5 {
		t.Fatalf("replayed %d provisions + %d accesses, want 1 + 5", stats.ReplayedProvisions, stats.ReplayedAccesses)
	}
	if !reflect.DeepEqual(archStates(reg2), archStates(reg)) {
		t.Fatal("recovered state differs after a refused append")
	}
}

// TestSnapshotRefusesOversizedFrame: an architecture whose frame would
// exceed the cap makes Snapshot fail before a snapshot file appears; the
// WAL stays authoritative.
func TestSnapshotRefusesOversizedFrame(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	reg, e := provisionVia(t, st)
	drive(t, e, 5)
	// Restore registers without logging, so only the snapshot sees it.
	if _, err := reg.Restore("arch-000009", twin(t, 0), 7, make([]byte, maxRecordLen)); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(reg); err == nil {
		t.Fatal("Snapshot wrote a frame over the cap")
	}
	mustNotExist(t, filepath.Join(dir, snapName(2)))
	mustNotExist(t, filepath.Join(dir, snapName(2)+".tmp"))
	driveFrom(t, e, 5, 9)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reg2, _, stats := recoverInto(t, dir)
	if stats.SnapshotEpoch != 0 || stats.Segments != 2 {
		t.Fatalf("recovery = %+v, want snapshotless 2-segment replay", stats)
	}
	e2, _ := reg2.Get(e.ID)
	if !reflect.DeepEqual(e2.Arch.State(), e.Arch.State()) {
		t.Fatal("WAL recovery after a refused snapshot diverges")
	}
}

// TestSnapshotCorruption: every way a snapshot can be damaged or
// inconsistent is refused with a *CorruptionError naming the file
// and the record, and never panics.
func TestSnapshotCorruption(t *testing.T) {
	src := t.TempDir()
	snapshotFleet(t, src, 3, 0)
	valid, err := os.ReadFile(filepath.Join(src, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recoverSnapshotBytes(t, valid); err != nil {
		t.Fatalf("undamaged snapshot refused: %v", err)
	}
	frames := snapFrames(t, valid)
	if len(frames) != 4 {
		t.Fatalf("snapshot of 3 architectures has %d frames, want 4", len(frames))
	}
	// rewrite returns the file with frame i replaced (nil drops it).
	rewrite := func(i int, p []byte) []byte {
		fs := append([][]byte(nil), frames...)
		if p == nil {
			fs = append(fs[:i], fs[i+1:]...)
		} else {
			fs[i] = p
		}
		return joinFrames(t, fs)
	}
	header := func(edit func(*snapshotHeader)) []byte { return rewrite(0, editHeader(t, frames[0], edit)) }
	meta := func(i int, edit func(*snapshotArch)) []byte { return rewrite(i, editMeta(t, frames[i], edit)) }
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	overrun := append([]byte(nil), frames[2]...)
	binary.LittleEndian.PutUint32(overrun, 1<<31)

	cases := []struct {
		name   string
		data   []byte
		record int
	}{
		{"torn file", valid[:len(valid)-5], 3},
		{"wear column CRC mismatch", badCRC, 3},
		{"truncated wear columns", rewrite(3, frames[3][:len(frames[3])-8]), 3},
		{"column length disagrees with copy shape", meta(1, func(m *snapshotArch) { m.Switches[0]++ }), 1},
		{"negative copy shape", meta(1, func(m *snapshotArch) { m.Switches[0] = -1 }), 1},
		{"metadata length overruns frame", rewrite(2, overrun), 2},
		{"metadata not JSON", rewrite(1, append(append([]byte(nil), frames[1][:4]...), bytes.Repeat([]byte("!"), len(frames[1])-4)...)), 1},
		{"header not JSON", rewrite(0, []byte("nope")), 0},
		{"header epoch mismatch", header(func(h *snapshotHeader) { h.Epoch = 9 }), 0},
		{"header count above frames", header(func(h *snapshotHeader) { h.ArchCount = 4 }), 4},
		{"header count below frames", header(func(h *snapshotHeader) { h.ArchCount = 2 }), 3},
		{"negative header count", header(func(h *snapshotHeader) { h.ArchCount = -1 }), 0},
		{"extra architecture frame", joinFrames(t, append(append([][]byte(nil), frames...), frames[3])), 4},
		{"missing architecture frame", rewrite(3, nil), 3},
		{"duplicate id", meta(2, func(m *snapshotArch) { m.ID = "arch-000001" }), 2},
		{"header only", joinFrames(t, frames[:1]), 1},
	}
	// refused asserts data is refused as corruption of the given record,
	// for a reason that contains reason.
	refused := func(t *testing.T, data []byte, record int, reason string) {
		t.Helper()
		_, err := recoverSnapshotBytes(t, data)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("got %v, want *CorruptionError", err)
		}
		if ce.File != snapName(2) || ce.Record != record {
			t.Fatalf("error names %s record %d, want %s record %d (%v)",
				ce.File, ce.Record, snapName(2), record, ce)
		}
		if !strings.Contains(ce.Reason, reason) {
			t.Fatalf("reason %q does not say %q", ce.Reason, reason)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { refused(t, tc.data, tc.record, "") })
	}

	// The sparse shape of format 3, on the twins' snapshot: frame 1 is
	// unleveled with copies 0-2 touched, frame 2 leveled with copies 0-1.
	twins := snapFrames(t, twinSnapshot(t))
	if _, err := recoverSnapshotBytes(t, joinFrames(t, twins)); err != nil {
		t.Fatalf("undamaged twin snapshot refused: %v", err)
	}
	sparse := func(i int, edit func(*snapshotArch)) []byte {
		fs := append([][]byte(nil), twins...)
		fs[i] = editMeta(t, fs[i], edit)
		return joinFrames(t, fs)
	}
	// Old formats carry every copy: a nil entry is still damage there,
	// not "as fabricated".
	format1, err := os.ReadFile(filepath.Join("testdata", "format1", snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	format2, err := os.ReadFile(filepath.Join("testdata", "format2", snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	f2 := snapFrames(t, format2)
	f2[2] = editMeta(t, f2[2], func(m *snapshotArch) { m.State.Assign[3] = nil })
	for _, tc := range []struct {
		name   string
		data   []byte
		record int
		reason string
	}{
		{"touched copy out of range", sparse(1, func(m *snapshotArch) { m.Touched[2] = m.Design.Copies }), 1, "do not ascend"},
		{"negative touched copy", sparse(1, func(m *snapshotArch) { m.Touched[0] = -1 }), 1, "do not ascend"},
		{"touched copies unsorted", sparse(1, func(m *snapshotArch) { m.Touched[0], m.Touched[1] = m.Touched[1], m.Touched[0] }), 1, "do not ascend"},
		{"touched copy duplicated", sparse(2, func(m *snapshotArch) { m.Touched[1] = m.Touched[0] }), 2, "do not ascend"},
		{"switch counts do not match touched", sparse(1, func(m *snapshotArch) { m.Switches = m.Switches[:2] }), 1, "switch counts for 3 touched copies"},
		{"wear columns do not match touched shape", sparse(1, func(m *snapshotArch) {
			m.Touched, m.Switches = m.Touched[:2], m.Switches[:2]
		}), 1, "wear columns hold"},
		{"remap tables not one per touched copy", sparse(2, func(m *snapshotArch) { m.State.Assign = m.State.Assign[:1] }), 2, "remap tables"},
		{"retirement sets not one per touched copy", sparse(2, func(m *snapshotArch) { m.State.Retired = append(m.State.Retired, nil) }), 2, "retirement sets"},
		{"remap tables on an unleveled frame", sparse(1, func(m *snapshotArch) { m.State.Assign = [][]int{{0}, {1}, {2}} }), 1, "remap tables"},
		{"design without copies", sparse(1, func(m *snapshotArch) { m.Design.Copies = -1 }), 1, "design has -1 copies"},
		{"format-1 copy without switch states", joinFrames(t, [][]byte{editHeader(t, snapFrames(t, format1)[0], func(h *snapshotHeader) {
			h.Archs[0].State.Copies[4] = nil
		})}), 0, "copy 4 has no switch states"},
		{"format-2 copy without remap table", joinFrames(t, f2), 2, "copy 3 has no remap table"},
	} {
		t.Run(tc.name, func(t *testing.T) { refused(t, tc.data, tc.record, tc.reason) })
	}
}

// TestSnapshotRefusesUnreachableSwitchState pins recovery against a
// switch state no actuation history produces: a frame whose CRC is valid
// but whose fail-cycle column names a cycle past its switch's actuation
// count fails recovery, naming the architecture, rather than restoring a
// switch that State would report differently.
func TestSnapshotRefusesUnreachableSwitchState(t *testing.T) {
	src := t.TempDir()
	snapshotFleet(t, src, 3, 0)
	valid, err := os.ReadFile(filepath.Join(src, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	frames := snapFrames(t, valid)
	p := frames[3]
	cols := p[4+binary.LittleEndian.Uint32(p):]
	total := len(cols) / wearBytes
	last := 8 * (total - 1)
	act := binary.LittleEndian.Uint64(cols[8*total+last:])
	binary.LittleEndian.PutUint64(cols[16*total+last:], act+1)
	_, err = recoverSnapshotBytes(t, joinFrames(t, frames))
	if err == nil || !strings.Contains(err.Error(), "arch-000003") || !strings.Contains(err.Error(), "no actuation history reaches") {
		t.Fatalf("recovery of an unreachable switch state: got %v, want a refusal naming arch-000003", err)
	}
}

// twinSnapshot encodes, in the current format, the twins of the format-2
// fixture: arch-000001 is unleveled 17 accesses in (copies 0-2 touched),
// arch-000002 leveled 16 mixed ops in (copies 0-1 touched); both have
// untouched copies after those.
func twinSnapshot(t *testing.T) []byte {
	t.Helper()
	d, lv := testDesign(t), testLeveling()
	archs := []snapshotArch{
		{ID: "arch-000001", Seed: testSeed, Secret: testSecret(), Design: d, State: twin(t, 17).State()},
		{ID: "arch-000002", Seed: testSeed, Secret: testSecret(), Design: d, State: leveledTwin(t, 16).Arch.State(),
			Spares: lv.Spares, RemapEpoch: lv.Epoch},
	}
	data, err := encodeSnapshot(snapshotHeader{Format: snapshotFormat, Epoch: 2, CreatedUnixNanos: 1}, archs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The ways TestSparseSnapshotRoundTrip sets a copy apart from a fresh
// build; the last three apply to leveled copies only.
const (
	keepFabricated = iota
	wearOnly
	assignOnly
	retiredOnly
	everyKind
)

// touchCopy sets copy ci of st apart from a fresh build in the given way,
// drawing the details from r. Any one non-zero wear field, one spare
// under a logical slot or one retired switch is enough.
func touchCopy(st *core.State, ci, kind, n int, r *rng.RNG) {
	if kind == wearOnly || kind == everyKind {
		sw := st.Copies[ci]
		s := &sw[r.Intn(len(sw))]
		switch r.Intn(3) {
		case 0:
			s.Wear = 1 + 9*r.Float64()
		case 1:
			s.Actuated = uint64(1 + r.Intn(40))
		default:
			c := uint64(1 + r.Intn(40))
			s.Actuated, s.FailCycle = c, c // failed on its last actuation
		}
	}
	if kind == assignOnly || kind == everyKind {
		spares := len(st.Copies[ci]) - n
		st.Assign[ci][r.Intn(n)] = n + r.Intn(spares)
	}
	if kind == retiredOnly || kind == everyKind {
		st.Retired[ci] = append(st.Retired[ci], r.Intn(len(st.Copies[ci])))
	}
}

// TestSparseSnapshotRoundTrip is the seeded property behind format 3:
// whichever copies are touched — none, every one or only some, by wear
// alone, a remap table alone or a retirement alone — encode, decode and
// Restore give back the core.State JSON byte for byte, and the frame
// carries exactly the touched copies.
func TestSparseSnapshotRoundTrip(t *testing.T) {
	d, lv := testDesign(t), testLeveling()
	r := rng.New(2026)
	var seen [everyKind + 1]int
	for trial := 0; trial < 36; trial++ {
		var archs []snapshotArch
		var touched [][]int
		for i, leveled := range []bool{false, true} {
			seed := uint64(testSeed + 2*trial + i)
			var arch *core.Architecture
			var err error
			if leveled {
				arch, err = core.BuildLeveled(d, testSecret(), lv, rng.New(seed))
			} else {
				arch, err = core.Build(d, testSecret(), rng.New(seed))
			}
			if err != nil {
				t.Fatal(err)
			}
			st := arch.State()
			kinds := 1 // wear is the only way an unleveled copy can differ
			if leveled {
				kinds = everyKind
			}
			var want []int
			for ci := range st.Copies {
				kind := keepFabricated
				switch trial % 3 {
				case 1: // every copy
					kind = 1 + r.Intn(kinds)
				case 2: // some copies: the trial's copy is kept, the next touched
					if ci == (trial+1)%d.Copies || (ci != trial%d.Copies && r.Bool()) {
						kind = 1 + r.Intn(kinds)
					}
				}
				seen[kind]++
				if kind != keepFabricated {
					touchCopy(&st, ci, kind, d.N, r)
					want = append(want, ci)
				}
			}
			if err := arch.Restore(st); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			sa := snapshotArch{ID: fmt.Sprintf("arch-%06d", i+1), Seed: seed, Secret: testSecret(), Design: d, State: arch.State()}
			if leveled {
				sa.Spares, sa.RemapEpoch = lv.Spares, lv.Epoch
			}
			archs, touched = append(archs, sa), append(touched, want)
		}
		data, err := encodeSnapshot(snapshotHeader{Format: snapshotFormat, Epoch: 2, CreatedUnixNanos: 1}, archs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range snapFrames(t, data)[1:] {
			editMeta(t, p, func(m *snapshotArch) {
				if fmt.Sprint(m.Touched) != fmt.Sprint(touched[i]) {
					t.Fatalf("trial %d %s: frame carries copies %v, want %v", trial, m.ID, m.Touched, touched[i])
				}
			})
		}
		reg, err := recoverSnapshotBytes(t, data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := archStates(reg)
		for _, sa := range archs {
			want, err := json.Marshal(sa.State)
			if err != nil {
				t.Fatal(err)
			}
			have, err := json.Marshal(got[sa.ID])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(have, want) {
				t.Fatalf("trial %d %s: restored state differs from the encoded one\n got %s\nwant %s", trial, sa.ID, have, want)
			}
		}
	}
	for kind, n := range seen {
		if n == 0 {
			t.Fatalf("no copy was touched in way %d; the seed no longer covers every case", kind)
		}
	}
}

// TestFormat1SnapshotRecovers: a data directory written before the
// framed layout (one JSON snapshot frame) still recovers, to the same
// state as its uninterrupted twins, and its next snapshot is written in
// the current format (snapshotFormat).
func TestFormat1SnapshotRecovers(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "format1"))
	reg, st, stats := recoverInto(t, dir)
	if stats.SnapshotEpoch != 2 || stats.SnapshotArchitectures != 2 {
		t.Fatalf("recovery stats %+v: want the epoch-2 snapshot of 2 architectures", stats)
	}
	want := map[string]core.State{
		"arch-000001": twin(t, 17).State(),
		"arch-000002": leveledTwin(t, 12).Arch.State(),
	}
	if got := archStates(reg); !reflect.DeepEqual(got, want) {
		t.Fatal("format-1 snapshot recovers a state different from its twins")
	}

	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapName(3)))
	if err != nil {
		t.Fatal(err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(snapFrames(t, data)[0], &hdr); err != nil || hdr.Format != snapshotFormat {
		t.Fatalf("snapshot after a format-1 recovery has format %d (%v), want %d", hdr.Format, err, snapshotFormat)
	}
	reg2, _, _ := recoverInto(t, dir)
	if got := archStates(reg2); !reflect.DeepEqual(got, want) {
		t.Fatal("re-snapshotted format-1 state does not recover identically")
	}
}

// TestFormat2SnapshotRecovers: a data directory whose snapshot is format
// 2 — every copy's wear in columns, every leveled copy's remap table
// inline — still recovers, to the same state as its uninterrupted twins,
// and re-snapshots in the current format to recover identically again.
// Both fixture architectures hold copies that were touched and copies
// that were not.
func TestFormat2SnapshotRecovers(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "format2"))
	reg, st, stats := recoverInto(t, dir)
	if stats.SnapshotEpoch != 2 || stats.SnapshotArchitectures != 2 {
		t.Fatalf("recovery stats %+v: want the epoch-2 snapshot of 2 architectures", stats)
	}
	want := map[string]core.State{
		"arch-000001": twin(t, 17).State(),
		"arch-000002": leveledTwin(t, 16).Arch.State(),
	}
	if got := archStates(reg); !reflect.DeepEqual(got, want) {
		t.Fatal("format-2 snapshot recovers a state different from its twins")
	}

	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapName(3)))
	if err != nil {
		t.Fatal(err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(snapFrames(t, data)[0], &hdr); err != nil || hdr.Format != snapshotFormat {
		t.Fatalf("snapshot after a format-2 recovery has format %d (%v), want %d", hdr.Format, err, snapshotFormat)
	}
	reg2, _, _ := recoverInto(t, dir)
	if got := archStates(reg2); !reflect.DeepEqual(got, want) {
		t.Fatal("re-snapshotted format-2 state does not recover identically")
	}
}

// TestRecoveryIndependentOfGOMAXPROCS: the parallel rebuild yields the
// same registry — states, size, next minted ID — on 1 and 4 workers.
func TestRecoveryIndependentOfGOMAXPROCS(t *testing.T) {
	src := t.TempDir()
	want := snapshotFleet(t, src, 9, 4)
	var nextIDs []string
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		reg, st, stats := recoverInto(t, copyDir(t, src))
		runtime.GOMAXPROCS(prev)
		if stats.SnapshotArchitectures != 9 || stats.ReplayedRecords() == 0 {
			t.Fatalf("GOMAXPROCS=%d: recovery stats %+v, want a snapshot plus a replayed suffix", procs, stats)
		}
		if reg.Len() != 9 {
			t.Fatalf("GOMAXPROCS=%d: %d architectures, want 9", procs, reg.Len())
		}
		if !reflect.DeepEqual(archStates(reg), want) {
			t.Fatalf("GOMAXPROCS=%d: recovered state differs from the live fleet", procs)
		}
		e, err := reg.Provision(twin(t, 0), testSeed, testSecret())
		if err != nil {
			t.Fatal(err)
		}
		nextIDs = append(nextIDs, e.ID)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if nextIDs[0] != nextIDs[1] || nextIDs[0] != "arch-000010" {
		t.Fatalf("next minted IDs %v, want arch-000010 on both", nextIDs)
	}
}

// TestSnapshotBytesDeterministic: equal histories snapshot to
// byte-identical files.
func TestSnapshotBytesDeterministic(t *testing.T) {
	var files [][]byte
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		snapshotFleet(t, dir, 4, 0)
		data, err := os.ReadFile(filepath.Join(dir, snapName(2)))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("equal histories produced different snapshot bytes")
	}
}

// TestSnapshotRebuildErrorLowestIndex: when several architectures fail
// to rebuild, recovery reports the lowest-index one however the workers
// were scheduled.
func TestSnapshotRebuildErrorLowestIndex(t *testing.T) {
	src := t.TempDir()
	snapshotFleet(t, src, 6, 0)
	valid, err := os.ReadFile(filepath.Join(src, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	frames := snapFrames(t, valid)
	for _, i := range []int{2, 4, 5} { // architecture index; frame i+1
		frames[i+1] = editMeta(t, frames[i+1], func(m *snapshotArch) { m.Secret = []byte{} })
	}
	data := joinFrames(t, frames)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for round := 0; round < 5; round++ {
			_, err := recoverSnapshotBytes(t, data)
			if err == nil || !strings.Contains(err.Error(), "arch-000003:") {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d round %d: got %v, want the rebuild failure of arch-000003", procs, round, err)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
