package wal

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/rng"
)

const testSeed = 42

func testSecret() []byte { return []byte("0123456789abcdef") }

func testDesign(t testing.TB) dse.Design {
	t.Helper()
	s := dse.Spec{LAB: 30, KFrac: 0.1, ContinuousT: true}
	s.Dist.Alpha = 6
	s.Dist.Beta = 8
	s.Criteria.MinWork = 0.99
	s.Criteria.MaxOverrun = 0.01
	d, err := dse.Explore(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// accessEnv is the deterministic environment schedule used across the
// crash tests: every 5th access runs hot so fractional wear acceleration
// is part of the replayed trajectory.
func accessEnv(i int) nems.Environment {
	if i%5 == 4 {
		return nems.Environment{TempCelsius: 200}
	}
	return nems.RoomTemp
}

// openStore opens a DiskStore on dir with a deterministic fake clock.
func openStore(t *testing.T, dir string, threshold int) *DiskStore {
	t.Helper()
	var tick int64
	st, err := Open(Config{
		Dir:               dir,
		NowNanos:          func() int64 { tick += 1e6; return tick },
		SnapshotThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// provisionVia recovers st into a fresh registry and provisions one
// architecture, returning both.
func provisionVia(t *testing.T, st *DiskStore) (*registry.Registry, *registry.Entry) {
	t.Helper()
	reg := registry.NewWithStore(4, st)
	if _, err := st.Recover(reg); err != nil {
		t.Fatal(err)
	}
	arch, err := core.Build(testDesign(t), testSecret(), rng.New(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Provision(arch, testSeed, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	return reg, e
}

// twin builds the uninterrupted reference architecture and plays n
// accesses of the schedule into it.
func twin(t *testing.T, n int) *core.Architecture {
	t.Helper()
	arch, err := core.Build(testDesign(t), testSecret(), rng.New(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := arch.Access(accessEnv(i)); err != nil &&
			!errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrDecodeFailed) {
			t.Fatalf("twin access %d: %v", i, err)
		}
	}
	return arch
}

// drive plays n accesses of the schedule through an entry.
func drive(t *testing.T, e *registry.Entry, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Access(context.Background(), accessEnv(i)); err != nil &&
			!errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrDecodeFailed) {
			t.Fatalf("access %d: %v", i, err)
		}
	}
}

// lockoutTranscript drives an architecture to exhaustion, returning the
// error sequence and recovered secrets.
func lockoutTranscript(t *testing.T, a *core.Architecture) (outcomes []string, secrets [][]byte) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		secret, err := a.Access(nems.RoomTemp)
		switch {
		case err == nil:
			outcomes = append(outcomes, "success")
			secrets = append(secrets, secret)
		case errors.Is(err, core.ErrExhausted):
			return append(outcomes, "exhausted"), secrets
		case errors.Is(err, core.ErrTransient):
			outcomes = append(outcomes, "transient")
		case errors.Is(err, core.ErrDecodeFailed):
			outcomes = append(outcomes, "decode_failed")
		default:
			t.Fatalf("unexpected access error: %v", err)
		}
	}
	t.Fatal("architecture never locked out")
	return nil, nil
}

// recoverInto opens a fresh store on dir and recovers it into a fresh
// registry, simulating a restart after a crash (the previous DiskStore
// is simply abandoned, as SIGKILL would).
func recoverInto(t *testing.T, dir string) (*registry.Registry, *DiskStore, RecoveryStats) {
	t.Helper()
	st := openStore(t, dir, 0)
	reg := registry.NewWithStore(4, st)
	stats, err := st.Recover(reg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, st, stats
}

// TestCrashRecoveryGolden is the tentpole acceptance test: provision with
// seed 42, consume 17 accesses, crash without any shutdown, restart —
// and the recovered architecture is bit-identical to an uninterrupted
// twin, all the way to lockout.
func TestCrashRecoveryGolden(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	_, e := provisionVia(t, st)
	drive(t, e, 17)
	// Crash: the store is abandoned mid-life, never Closed or snapshotted.

	reg2, _, stats := recoverInto(t, dir)
	if stats.ReplayedProvisions != 1 || stats.ReplayedAccesses != 17 {
		t.Fatalf("replayed %d provisions / %d accesses, want 1 / 17",
			stats.ReplayedProvisions, stats.ReplayedAccesses)
	}
	e2, ok := reg2.Get(e.ID)
	if !ok {
		t.Fatalf("recovered registry has no %s", e.ID)
	}
	if e2.Seed != testSeed || string(e2.Secret) != string(testSecret()) {
		t.Fatalf("recovered entry metadata: seed %d secret %q", e2.Seed, e2.Secret)
	}

	ref := twin(t, 17)
	if !reflect.DeepEqual(e2.Arch.State(), ref.State()) {
		t.Fatalf("recovered state differs from uninterrupted twin:\n got %+v\nwant %+v",
			e2.Arch.State(), ref.State())
	}
	gotTotal, gotOK := e2.Arch.Accesses()
	refTotal, refOK := ref.Accesses()
	if gotTotal != refTotal || gotOK != refOK {
		t.Fatalf("recovered counters (%d,%d) != twin (%d,%d)", gotTotal, gotOK, refTotal, refOK)
	}

	// The remaining budget must play out identically, byte for byte.
	wantOut, wantSec := lockoutTranscript(t, ref)
	gotOut, gotSec := lockoutTranscript(t, e2.Arch)
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("post-recovery transcript diverges:\n got %v\nwant %v", gotOut, wantOut)
	}
	if !reflect.DeepEqual(gotSec, wantSec) {
		t.Fatal("post-recovery secrets diverge")
	}
}

// TestRecoveredTotalsMonotonic: a recovered registry never under-counts.
// Every access durably logged before the crash is present after restart.
func TestRecoveredTotalsMonotonic(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	_, e := provisionVia(t, st)
	drive(t, e, 9)
	preTotal, _ := e.Arch.Accesses()

	reg2, _, _ := recoverInto(t, dir)
	e2, _ := reg2.Get(e.ID)
	postTotal, _ := e2.Arch.Accesses()
	if postTotal < preTotal {
		t.Fatalf("restart refunded budget: %d accesses before crash, %d after recovery", preTotal, postTotal)
	}
	if postTotal != preTotal {
		t.Fatalf("recovered total %d != logged total %d", postTotal, preTotal)
	}
}

// TestTornTailRecovers: a crash mid-append leaves a partial frame; the
// next recovery truncates it and serves the state the complete prefix
// implies.
func TestTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	_, e := provisionVia(t, st)
	drive(t, e, 17)

	// Simulate a crash mid-write: a frame header promising more bytes
	// than the file holds.
	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, st2, stats := recoverInto(t, dir)
	if stats.TornBytesTruncated != 10 {
		t.Fatalf("TornBytesTruncated = %d, want 10", stats.TornBytesTruncated)
	}
	if stats.ReplayedAccesses != 17 {
		t.Fatalf("replayed %d accesses, want all 17 complete ones", stats.ReplayedAccesses)
	}
	e2, _ := reg2.Get(e.ID)
	if !reflect.DeepEqual(e2.Arch.State(), twin(t, 17).State()) {
		t.Fatal("state after torn-tail truncation differs from twin")
	}

	// The truncated segment must accept appends again: drive one access
	// through the recovered store and recover a third time.
	if _, err := e2.Access(context.Background(), accessEnv(17)); err != nil &&
		!errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrDecodeFailed) {
		t.Fatal(err)
	}
	_ = st2
	reg3, _, _ := recoverInto(t, dir)
	e3, _ := reg3.Get(e.ID)
	if !reflect.DeepEqual(e3.Arch.State(), twin(t, 18).State()) {
		t.Fatal("state after post-truncation append differs from twin")
	}
}

// TestFlippedCRCRefuses: damage that is not a torn tail must make
// recovery fail closed, naming the damaged record.
func TestFlippedCRCRefuses(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	_, e := provisionVia(t, st)
	drive(t, e, 17)
	_ = e

	// Flip one CRC byte of record 1 (the first access record; record 0 is
	// the provision).
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	n0 := int64(data[0]) | int64(data[1])<<8 | int64(data[2])<<16 | int64(data[3])<<24
	off := 8 + n0 + 4 // record 1's CRC field
	data[off] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, 0)
	reg2 := registry.NewWithStore(4, st2)
	_, err = st2.Recover(reg2)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Recover on flipped CRC: err = %v, want *CorruptionError", err)
	}
	if ce.File != segName(1) || ce.Record != 1 {
		t.Fatalf("corruption reported at %s record %d, want %s record 1", ce.File, ce.Record, segName(1))
	}

	// The refusing store must not accept appends.
	if _, aerr := st2.Append([]registry.Record{{Access: &registry.AccessRecord{ID: "arch-000001"}}}); aerr == nil {
		t.Fatal("append succeeded on a store that refused recovery")
	}
}

// TestSnapshotCompaction: snapshotting rotates segments, deletes covered
// history, and the (snapshot + suffix) recovery equals the uninterrupted
// twin.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	reg, e := provisionVia(t, st)
	drive(t, e, 10)

	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Error("segment 1 survived compaction")
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); err != nil {
		t.Errorf("snapshot 2 missing: %v", err)
	}
	if st.RecordsSinceSnapshot() != 0 {
		t.Errorf("RecordsSinceSnapshot = %d after snapshot", st.RecordsSinceSnapshot())
	}

	// Post-snapshot traffic lands in segment 2; then crash.
	for i := 10; i < 17; i++ {
		if _, err := e.Access(context.Background(), accessEnv(i)); err != nil &&
			!errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrDecodeFailed) {
			t.Fatal(err)
		}
	}

	reg2, _, stats := recoverInto(t, dir)
	if stats.SnapshotEpoch != 2 || stats.SnapshotArchitectures != 1 {
		t.Fatalf("recovered from snapshot epoch %d with %d archs, want epoch 2 with 1",
			stats.SnapshotEpoch, stats.SnapshotArchitectures)
	}
	if stats.ReplayedAccesses != 7 || stats.ReplayedProvisions != 0 {
		t.Fatalf("replayed %d accesses / %d provisions, want 7 / 0 (prefix is in the snapshot)",
			stats.ReplayedAccesses, stats.ReplayedProvisions)
	}
	e2, ok := reg2.Get(e.ID)
	if !ok {
		t.Fatalf("recovered registry has no %s", e.ID)
	}
	if !reflect.DeepEqual(e2.Arch.State(), twin(t, 17).State()) {
		t.Fatal("snapshot+suffix recovery differs from uninterrupted twin")
	}

	// Recovered IDs must not be reassigned.
	arch, err := core.Build(testDesign(t), testSecret(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	e3, err := reg2.Provision(arch, 7, []byte("other"))
	if err != nil {
		t.Fatal(err)
	}
	if e3.ID != "arch-000002" {
		t.Fatalf("post-recovery provision ID = %q, want arch-000002", e3.ID)
	}
}

// TestSnapshotThresholdSignals: crossing SnapshotThreshold raises the
// SnapshotNeeded signal exactly as a level trigger.
func TestSnapshotThresholdSignals(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 5)
	_, e := provisionVia(t, st)
	select {
	case <-st.SnapshotNeeded():
		t.Fatal("signal before threshold")
	default:
	}
	drive(t, e, 4) // 1 provision + 4 accesses = 5 records
	select {
	case <-st.SnapshotNeeded():
	default:
		t.Fatal("no signal after crossing threshold")
	}
}

// TestAppendBeforeRecoverFails pins the arming contract.
func TestAppendBeforeRecoverFails(t *testing.T) {
	st := openStore(t, t.TempDir(), 0)
	if _, err := st.Append([]registry.Record{{Access: &registry.AccessRecord{ID: "arch-000001"}}}); err == nil {
		t.Fatal("append before Recover succeeded")
	}
	if err := st.Snapshot(registry.New(1)); err == nil {
		t.Fatal("snapshot before Recover succeeded")
	}
}

// TestFreshDirIsEmpty: recovering an empty directory yields an empty
// registry and a writable segment 1.
func TestFreshDirIsEmpty(t *testing.T) {
	dir := t.TempDir()
	reg, st, stats := recoverInto(t, dir)
	if reg.Len() != 0 || stats.Segments != 0 || stats.SnapshotEpoch != 0 {
		t.Fatalf("fresh dir recovery: len %d, stats %+v", reg.Len(), stats)
	}
	arch, err := core.Build(testDesign(t), testSecret(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Provision(arch, 1, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
		t.Fatalf("segment 1 missing after first provision: %v", err)
	}
}
