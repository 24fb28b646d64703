package wal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/metrics"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/rng"
)

// goldenRun drives the seeded leveled schedule that the on-disk golden
// pins: one leveled provision, then the mixed schedule of accesses and
// hot stress bursts, whose derived rotations retire worn switches and
// remap without writing a record, so the segment holds the three op
// record kinds only. The store runs on a counter clock and reports into
// m; the run ends with a crash (Close, no snapshot), a recovery into a
// second store on the same metrics registry, and a snapshot of the
// recovered state. It returns the directory, the bytes of segment 1 as
// the first store left it, and the recovery stats.
func goldenRun(t *testing.T, m *metrics.Registry) (string, []byte, RecoveryStats) {
	t.Helper()
	dir := t.TempDir()
	open := func() *DiskStore {
		var tick int64
		st, err := Open(Config{Dir: dir, Metrics: m, NowNanos: func() int64 { tick += 1e6; return tick }})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	reg := registry.NewWithStore(4, st)
	if _, err := st.Recover(reg); err != nil {
		t.Fatal(err)
	}
	arch, err := core.BuildLeveled(testDesign(t), testSecret(), testLeveling(), rng.New(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Provision(arch, testSeed, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	driveLeveled(t, e, 0, 24)
	if retired(e.Arch.State()) == 0 {
		t.Fatal("the schedule never retired a switch; the run would not cover derived retirements")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}

	st2 := open()
	reg2 := registry.NewWithStore(4, st2)
	stats, err := st2.Recover(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Snapshot(reg2); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, seg, stats
}

// TestOnDiskBytesGolden pins the exact bytes of a WAL segment and of a
// snapshot (current format) written by the seeded leveled run against
// testdata/ondisk.golden. The lemonbench checksums hash only recovered
// state, so without this a change to record framing or JSON layout would
// pass every other test while leaving older data directories unreadable.
func TestOnDiskBytesGolden(t *testing.T) {
	dir, seg, stats := goldenRun(t, metrics.NewRegistry())
	if stats.ReplayedProvisions == 0 || stats.ReplayedAccesses == 0 || stats.ReplayedStresses == 0 ||
		stats.ReplayedRetires != 0 || stats.ReplayedRemaps != 0 {
		t.Fatalf("recovery stats %+v: the run must write the three op record kinds and no rotation record", stats)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapName(2)))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{segName(1): sha256Hex(seg), snapName(2): sha256Hex(snap)}

	f, err := os.Open(filepath.Join("testdata", "ondisk.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden names %d files, the run writes %d", len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, golden %s", name, sum, want[name])
		}
	}
}

// TestRecordKindMetrics pins the per-kind WAL series: after the golden
// run and its recovery, the exposition carries exactly the five type
// labels for both the append and the replay counters, with the counts
// the run wrote — zero for retire and remap, which are read, never
// written. Everything appended is replayed, because the run crashes
// before any snapshot.
func TestRecordKindMetrics(t *testing.T) {
	m := metrics.NewRegistry()
	_, _, stats := goldenRun(t, m)
	want := map[string]uint64{
		"provision": uint64(stats.ReplayedProvisions),
		"access":    uint64(stats.ReplayedAccesses),
		"stress":    uint64(stats.ReplayedStresses),
		"retire":    uint64(stats.ReplayedRetires),
		"remap":     uint64(stats.ReplayedRemaps),
	}
	if fmt.Sprint(want) != "map[access:18 provision:1 remap:0 retire:0 stress:6]" {
		t.Fatalf("replayed counts %v differ from the seeded run's", want)
	}
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"lemonaded_wal_appends_total", "lemonaded_wal_replayed_records_total"} {
		got := map[string]uint64{}
		for _, line := range strings.Split(sb.String(), "\n") {
			rest, ok := strings.CutPrefix(line, family+`{type="`)
			if !ok {
				continue
			}
			kind, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				t.Fatalf("malformed sample %q", line)
			}
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			if _, dup := got[kind]; dup {
				t.Fatalf("%s: type %q exposed twice", family, kind)
			}
			got[kind] = n
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", family, got, want)
		}
	}
}

// TestLoggedRotationsRecover: the golden run's segment as the previous
// version wrote it, with its 59 retire and 14 remap records, recovers to
// the state of an uninterrupted twin byte for byte. The logged rotations
// are decoded and counted but not applied; each is re-derived after the
// op that made it due.
func TestLoggedRotationsRecover(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "logged-rotations"))
	reg, _, stats := recoverInto(t, dir)
	if stats.ReplayedRetires != 59 || stats.ReplayedRemaps != 14 {
		t.Fatalf("recovery stats %+v: want the fixture's 59 retire and 14 remap records read", stats)
	}
	e, ok := reg.Get("arch-000001")
	if !ok {
		t.Fatal("fixture architecture missing")
	}
	got, err := json.Marshal(e.Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(leveledTwin(t, 24).Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("logged-rotation segment recovers\n%s\nwant the twin's\n%s", got, want)
	}
}

// TestSnapshotBeforeLoggedRotation: an earlier version could snapshot
// between an op and the maintenance commit that logged the rotation the
// op made due. Recovery restores the op without its rotation, reads the
// logged retire and remap records that follow, derives the rotation
// there, where it was applied live, and ends at the uninterrupted
// twin's state byte for byte.
func TestSnapshotBeforeLoggedRotation(t *testing.T) {
	arch, err := core.BuildLeveled(testDesign(t), testSecret(), testLeveling(), rng.New(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	const ops = 24
	id := "arch-000001"
	opRecord := func(i int) registry.Record {
		if i%4 == 1 {
			return registry.Record{Stress: &registry.StressRecord{ID: id, TempCelsius: 400, Indices: []int{0, 1}, Pulses: 1}}
		}
		return registry.Record{Access: &registry.AccessRecord{ID: id, TempCelsius: accessEnv(i).TempCelsius}}
	}
	// Serve ops on the bare architecture until the first rotation is due;
	// none is due before it, so nothing is skipped on the way.
	next := 0
	plan, due := arch.PendingRemap()
	for ; !due && next < ops; next++ {
		if rec := opRecord(next); rec.Stress != nil {
			_, _ = arch.Stress(nems.Environment{TempCelsius: rec.Stress.TempCelsius}, rec.Stress.Indices, rec.Stress.Pulses)
		} else {
			_, _ = arch.Access(accessEnv(next))
		}
		plan, due = arch.PendingRemap()
	}
	if !due {
		t.Fatal("the schedule never made a rotation due")
	}

	dir := t.TempDir()
	lv := testLeveling()
	snap, err := encodeSnapshot(snapshotHeader{Format: snapshotFormat, Epoch: 2, CreatedUnixNanos: 1}, []snapshotArch{{
		ID: id, Seed: testSeed, Secret: testSecret(), Design: testDesign(t), State: arch.State(),
		Spares: lv.Spares, RemapEpoch: lv.Epoch,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	frame := func(rec registry.Record) {
		k, err := rec.Kind()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(record{Type: registry.RecordKinds[k], Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		if seg, err = appendFrame(seg, payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range plan.Retire {
		frame(registry.Record{Retire: &registry.RetireRecord{ID: id, Copy: plan.Copy, Physical: p}})
	}
	frame(registry.Record{Remap: &registry.RemapRecord{ID: id, Copy: plan.Copy, Assign: plan.Assign}})
	for i := next; i < ops; i++ {
		frame(opRecord(i))
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	reg, _, stats := recoverInto(t, dir)
	if stats.SnapshotEpoch != 2 || stats.ReplayedRemaps != 1 {
		t.Fatalf("recovery stats %+v: want the epoch-2 snapshot and the logged remap read", stats)
	}
	e, ok := reg.Get(id)
	if !ok {
		t.Fatal("snapshot architecture missing")
	}
	got, err := json.Marshal(e.Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(leveledTwin(t, ops).Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot before a logged rotation recovers\n%s\nwant the twin's\n%s", got, want)
	}
}

// retired counts the retired switches across every copy of st.
func retired(st core.State) int {
	n := 0
	for _, r := range st.Retired {
		n += len(r)
	}
	return n
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
