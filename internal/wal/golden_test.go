package wal

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/metrics"
	"lemonade/internal/registry"
	"lemonade/internal/rng"
)

// goldenRun drives the seeded leveled schedule that the on-disk golden
// pins: one leveled provision, then the mixed schedule of accesses and
// hot stress bursts, whose maintenance plans retire worn switches and
// remap, so the segment holds all five record kinds. The store runs on a counter clock
// and reports into m; the run ends with a crash (Close, no snapshot),
// a recovery into a second store on the same metrics registry, and a
// snapshot of the recovered state. It returns the directory, the bytes
// of segment 1 as the first store left it, and the recovery stats.
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
	retired := 0
	reg.SetRemapObserver(func(ev registry.RemapEvent) {
		if ev.Err == nil {
			retired += len(ev.Plan.Retire)
		}
	})
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
	if retired == 0 {
		t.Fatal("the schedule never retired a switch; the run would not cover retire records")
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
		stats.ReplayedRetires == 0 || stats.ReplayedRemaps == 0 {
		t.Fatalf("recovery stats %+v: the run must write all five record kinds", stats)
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
// the run wrote. Everything appended is replayed, because the run
// crashes before any snapshot.
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
	if fmt.Sprint(want) != "map[access:18 provision:1 remap:14 retire:59 stress:6]" {
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

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
