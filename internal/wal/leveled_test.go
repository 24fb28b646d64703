package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// testLeveling is the wear-leveling variant used across the crash tests:
// a modest spare complement and a short rotation epoch so a handful of
// operations exercises derived retirements and remaps.
func testLeveling() core.Leveling { return core.Leveling{Spares: 8, Epoch: 3} }

// provisionLeveledVia recovers st into a fresh registry and provisions
// one wear-leveled architecture, returning both.
func provisionLeveledVia(t *testing.T, st *DiskStore) (*registry.Registry, *registry.Entry) {
	t.Helper()
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
	return reg, e
}

// leveledTwin builds the uninterrupted reference: the same leveled
// architecture behind an in-memory registry (rotations are deterministic
// functions of wear state, so the same schedule produces the same
// rotations), played through ops [0, n).
func leveledTwin(t *testing.T, n int) *registry.Entry {
	t.Helper()
	reg := registry.New(4)
	arch, err := core.BuildLeveled(testDesign(t), testSecret(), testLeveling(), rng.New(testSeed))
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Provision(arch, testSeed, testSecret())
	if err != nil {
		t.Fatal(err)
	}
	driveLeveled(t, e, 0, n)
	return e
}

// driveLeveled plays ops [from, from+n) of the deterministic mixed
// schedule through an entry: every 4th op is a targeted hot stress (the
// attacker), the rest are legitimate accesses on the shared environment
// schedule.
func driveLeveled(t *testing.T, e *registry.Entry, from, n int) {
	t.Helper()
	ctx := context.Background()
	for i := from; i < from+n; i++ {
		if i%4 == 1 {
			if _, err := e.Stress(ctx, nems.Environment{TempCelsius: 400}, []int{0, 1}, 1); err != nil {
				t.Fatalf("stress %d: %v", i, err)
			}
		} else if _, err := e.Access(ctx, accessEnv(i)); err != nil &&
			!errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrDecodeFailed) {
			t.Fatalf("access %d: %v", i, err)
		}
	}
}

// TestLeveledCrashRecoveryGolden is the wear-leveling acceptance test:
// drive a leveled architecture through a mixed access/attack schedule
// (rotations included), crash without shutdown, restart — and the
// recovered architecture, its rotations re-derived from the op records,
// is bit-identical to an uninterrupted twin, both at the crash point and
// through further shared traffic.
func TestLeveledCrashRecoveryGolden(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	_, e := provisionLeveledVia(t, st)
	const ops = 24
	driveLeveled(t, e, 0, ops)
	if e.Arch.Remaps() == 0 {
		t.Fatal("schedule never rotated the leveled architecture; the test would not cover remap replay")
	}
	preState := e.Arch.State()
	// Crash: the store is abandoned mid-life, never Closed or snapshotted.

	reg2, _, stats := recoverInto(t, dir)
	if stats.ReplayedStresses == 0 || stats.ReplayedRetires != 0 || stats.ReplayedRemaps != 0 {
		t.Fatalf("recovery stats %+v: want stress records replayed and no rotation record", stats)
	}
	e2, ok := reg2.Get(e.ID)
	if !ok {
		t.Fatalf("recovered registry has no %s", e.ID)
	}
	if !reflect.DeepEqual(e2.Arch.State(), preState) {
		t.Fatal("recovered leveled state differs from the state at the crash")
	}
	ref := leveledTwin(t, ops)
	if !reflect.DeepEqual(e2.Arch.State(), ref.Arch.State()) {
		t.Fatal("recovered leveled state differs from uninterrupted twin")
	}
	if e2.Arch.Remaps() != ref.Arch.Remaps() || e2.Arch.Stressed() != ref.Arch.Stressed() {
		t.Fatalf("recovered counters (remaps %d, stressed %d) != twin (%d, %d)",
			e2.Arch.Remaps(), e2.Arch.Stressed(), ref.Arch.Remaps(), ref.Arch.Stressed())
	}

	// The future must play out identically too: same rotations, same wear.
	driveLeveled(t, e2, ops, 8)
	driveLeveled(t, ref, ops, 8)
	if !reflect.DeepEqual(e2.Arch.State(), ref.Arch.State()) {
		t.Fatal("post-recovery trajectory diverges from the twin")
	}
}

// TestCrashMidRemapRecoversIdentically pins the torn-op contract for a
// rotation: the rotation has no record of its own, so a crash that tears
// the op record whose apply made it due takes the rotation with it.
// Recovery repairs the tail, replays deterministically — twice,
// bit-identically — never mints wear budget, and replaying the lost op
// live makes the same rotation due again and applies it.
func TestCrashMidRemapRecoversIdentically(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	_, e := provisionLeveledVia(t, st)
	ctx := context.Background()
	hot := nems.Environment{TempCelsius: 400}
	for i := 0; i < 200 && e.Arch.Remaps() == 0; i++ {
		if _, err := e.Stress(ctx, hot, []int{0, 1}, 1); err != nil {
			t.Fatalf("stress %d: %v", i, err)
		}
	}
	if e.Arch.Remaps() == 0 {
		t.Fatal("targeted stress never triggered a rotation")
	}
	preStressed := e.Arch.Stressed()
	preState, err := json.Marshal(e.Arch.State())
	if err != nil {
		t.Fatal(err)
	}

	// The loop stops the moment the first rotation lands, so the final
	// frame of the segment is the stress record that made it due. Tear it
	// mid-frame, as a crash between write and fsync would.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastStart, lastType := int64(-1), ""
	for off := int64(0); off+frameHeader <= int64(len(data)); {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		end := off + frameHeader + n
		if end > int64(len(data)) {
			break
		}
		var r record
		if err := json.Unmarshal(data[off+frameHeader:end], &r); err != nil {
			t.Fatal(err)
		}
		lastStart, lastType = off, r.Type
		off = end
	}
	if lastType != "stress" {
		t.Fatalf("last frame of the segment is a %q record, want the stress that made the rotation due", lastType)
	}
	if err := os.Truncate(seg, lastStart+5); err != nil {
		t.Fatal(err)
	}

	reg2, _, stats2 := recoverInto(t, dir)
	if stats2.TornBytesTruncated != 5 {
		t.Fatalf("TornBytesTruncated = %d, want 5", stats2.TornBytesTruncated)
	}
	e2, ok := reg2.Get(e.ID)
	if !ok {
		t.Fatalf("recovered registry has no %s", e.ID)
	}
	state2, err := json.Marshal(e2.Arch.State())
	if err != nil {
		t.Fatal(err)
	}

	// Second recovery over the repaired log: bit-identical wear state.
	reg3, _, stats3 := recoverInto(t, dir)
	if stats3.TornBytesTruncated != 0 {
		t.Fatalf("second recovery truncated again: %d bytes", stats3.TornBytesTruncated)
	}
	e3, _ := reg3.Get(e.ID)
	state3, err := json.Marshal(e3.Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state2, state3) {
		t.Fatalf("double recovery diverged:\n first %s\nsecond %s", state2, state3)
	}

	// Recovery can only ever drop the torn suffix, never mint budget: every
	// stress durably logged before the crash is present, the torn one is
	// not, and its rotation went with it.
	if got := e3.Arch.Stressed(); got != preStressed-1 {
		t.Fatalf("recovered stress budget %d, want the %d logged before the torn record", got, preStressed-1)
	}
	if e3.Arch.Remaps() != 0 {
		t.Fatal("the torn op's rotation came back from the dead")
	}

	// Serving the lost op again makes the same rotation due, and the live
	// path applies it: the state is the one the crash interrupted.
	if _, err := e3.Stress(ctx, hot, []int{0, 1}, 1); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(e3.Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, preState) {
		t.Fatalf("re-serving the torn op gives\n%s\nwant the pre-crash state\n%s", again, preState)
	}
}

// TestSnapshotCarriesLeveling: a snapshot of a leveled architecture pins
// the variant (spares, epoch) and the full remap/retire overlay, so a
// snapshot-based recovery rebuilds the identical leveled hardware.
func TestSnapshotCarriesLeveling(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, 0)
	reg, e := provisionLeveledVia(t, st)
	driveLeveled(t, e, 0, 12)
	if err := st.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	preState := e.Arch.State()
	lv, ok := e.Arch.Leveling()
	if !ok {
		t.Fatal("entry lost its leveling")
	}

	reg2, _, stats := recoverInto(t, dir)
	if stats.SnapshotEpoch != 2 || stats.ReplayedRecords() != 0 {
		t.Fatalf("recovery stats %+v: want pure snapshot recovery at epoch 2", stats)
	}
	e2, ok := reg2.Get(e.ID)
	if !ok {
		t.Fatalf("recovered registry has no %s", e.ID)
	}
	lv2, ok := e2.Arch.Leveling()
	if !ok || lv2 != lv {
		t.Fatalf("snapshot dropped the leveling variant: got %+v ok=%v, want %+v", lv2, ok, lv)
	}
	if !reflect.DeepEqual(e2.Arch.State(), preState) {
		t.Fatal("snapshot recovery of leveled state differs from pre-crash state")
	}

	// Post-snapshot traffic (segment 2) continues the same trajectory.
	driveLeveled(t, e, 12, 6)
	driveLeveled(t, e2, 12, 6)
	if !reflect.DeepEqual(e2.Arch.State(), e.Arch.State()) {
		t.Fatal("post-snapshot trajectory diverges between original and recovered entry")
	}
}

// wearFuzzSegment builds a well-formed one-segment WAL in the format
// earlier versions wrote: a leveled provision, a hot targeted stress, an
// access, then a maintenance batch (retire + full-assignment remap),
// which the current version reads but never writes. It returns the
// segment and the byte offsets of the retire and remap frames, so seeds
// can model crashes inside the maintenance batch.
func wearFuzzSegment(tb testing.TB) ([]byte, int, int) {
	tb.Helper()
	spec := dse.Spec{
		Dist:        weibull.MustNew(6, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         30,
		KFrac:       0.10,
		ContinuousT: true,
	}
	design, err := dse.Explore(spec)
	if err != nil {
		tb.Fatal(err)
	}
	prov := registry.ProvisionRecord{
		ID:         "arch-000001",
		Seed:       42,
		Secret:     []byte("0123456789abcdef"),
		Design:     design,
		Spares:     2,
		RemapEpoch: 1,
	}
	var buf []byte
	frame := func(r record) {
		payload, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		if buf, err = appendFrame(buf, payload); err != nil {
			tb.Fatal(err)
		}
	}
	frame(record{Type: "provision", Record: registry.Record{Provision: &prov}})
	frame(record{Type: "stress", Record: registry.Record{Stress: &registry.StressRecord{ID: prov.ID, TempCelsius: 400, Indices: []int{0, 1}, Pulses: 2}}})
	frame(record{Type: "access", Record: registry.Record{Access: &registry.AccessRecord{ID: prov.ID, TempCelsius: 25}}})
	retireStart := len(buf)
	frame(record{Type: "retire", Record: registry.Record{Retire: &registry.RetireRecord{ID: prov.ID, Copy: 0, Physical: 0}}})
	remapStart := len(buf)
	assign := make([]int, design.N)
	for i := range assign {
		assign[i] = i
	}
	assign[0] = design.N // rotate logical slot 0 onto the first spare
	frame(record{Type: "remap", Record: registry.Record{Remap: &registry.RemapRecord{ID: prov.ID, Copy: 0, Assign: assign}}})
	return buf, retireStart, remapStart
}

// FuzzWearRecordDecode feeds arbitrary bytes to WAL recovery with the
// wear-leveling record types (stress, and the retire/remap records of
// earlier versions) in the seed mix. The contract is the same
// recover-or-refuse one as FuzzWALFrameDecode — recovery never panics, a
// success is idempotent (recovering identical bytes twice yields
// bit-identical wear state, so recovery can never mint or refund
// wearout), and a refusal is a classified error — now covering the
// records an adversarial wearout campaign writes.
func FuzzWearRecordDecode(f *testing.F) {
	valid, _, remapStart := wearFuzzSegment(f)
	f.Add(valid)
	f.Add(valid[:remapStart])   // crash between retire and remap
	f.Add(valid[:remapStart+5]) // crash mid-remap-frame: torn remap record
	flipped := append([]byte(nil), valid...)
	flipped[remapStart+4] ^= 0xff // remap frame CRC damage
	f.Add(flipped)
	hijacked := append([]byte(nil), valid...)
	hijacked[remapStart+3] = 0xff // remap frame length blown past maxRecordLen
	f.Add(hijacked)

	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzRecoverable(data) {
			t.Skip("well-formed frame declares an absurdly expensive replay")
		}
		reg1, stats1, err := recoverBytes(t, data)
		if err != nil {
			return // refused cleanly; nothing was served
		}
		reg2, stats2, err := recoverBytes(t, data)
		if err != nil {
			t.Fatalf("recovery accepted the bytes once, refused them the second time: %v", err)
		}
		if stats1 != stats2 {
			t.Fatalf("recovery stats diverged across identical inputs: %+v vs %+v", stats1, stats2)
		}
		s1, s2 := archStates(reg1), archStates(reg2)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("wear state diverged across identical inputs: %+v vs %+v", s1, s2)
		}
	})
}

// TestWearFuzzSeedCorpus pins the seed corpus outcomes so the fuzz
// target's classification stays honest even when nobody runs the fuzzer,
// and keeps the checked-in corpus files in sync with the generator
// (regenerate with LEMONADE_UPDATE_FUZZ_CORPUS=1). Retire and remap
// records are read, never written: recovery decodes and counts them but
// applies nothing they recorded, so every prefix that keeps the op
// records recovers the state those records alone give, rotation included.
func TestWearFuzzSeedCorpus(t *testing.T) {
	valid, retireStart, remapStart := wearFuzzSegment(t)

	regOps, _, err := recoverBytes(t, valid[:retireStart])
	if err != nil {
		t.Fatalf("op records alone refused: %v", err)
	}
	eo, ok := regOps.Get("arch-000001")
	if !ok {
		t.Fatal("op records alone: architecture missing")
	}
	if eo.Arch.Remaps() == 0 || eo.Arch.Stressed() != 2 {
		t.Fatalf("op records alone: remaps %d stressed %d, want a derived rotation and 2", eo.Arch.Remaps(), eo.Arch.Stressed())
	}
	opsOnly := archStates(regOps)

	reg, stats, err := recoverBytes(t, valid)
	if err != nil {
		t.Fatalf("valid leveled segment refused: %v", err)
	}
	if stats.ReplayedProvisions != 1 || stats.ReplayedAccesses != 1 ||
		stats.ReplayedStresses != 1 || stats.ReplayedRetires != 1 || stats.ReplayedRemaps != 1 {
		t.Fatalf("valid segment stats %+v, want one record of each type replayed", stats)
	}
	if !reflect.DeepEqual(archStates(reg), opsOnly) {
		t.Fatal("the logged retire and remap changed the recovered state")
	}

	// Crash between retire and remap: the retire is read and changes
	// nothing.
	regBoundary, stats2, err := recoverBytes(t, valid[:remapStart])
	if err != nil {
		t.Fatalf("retire-without-remap prefix refused: %v", err)
	}
	if stats2.ReplayedRetires != 1 || stats2.ReplayedRemaps != 0 {
		t.Fatalf("prefix stats %+v, want the retire without the remap", stats2)
	}
	if !reflect.DeepEqual(archStates(regBoundary), opsOnly) {
		t.Fatal("retire-without-remap prefix recovers a state the op records alone do not give")
	}

	// Crash mid-remap-frame: the torn record truncates away and the state
	// equals the clean-boundary crash exactly.
	regTorn, stats3, err := recoverBytes(t, valid[:remapStart+5])
	if err != nil {
		t.Fatalf("torn remap refused: %v", err)
	}
	if stats3.TornBytesTruncated != 5 {
		t.Fatalf("torn remap: truncated %d bytes, want 5", stats3.TornBytesTruncated)
	}
	if !reflect.DeepEqual(archStates(regTorn), archStates(regBoundary)) {
		t.Fatal("torn-remap state differs from clean-boundary state")
	}

	// CRC damage inside the maintenance batch refuses outright.
	flipped := append([]byte(nil), valid...)
	flipped[remapStart+4] ^= 0xff
	_, _, err = recoverBytes(t, flipped)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("flipped remap CRC: got %v, want *CorruptionError", err)
	}
	// An absurd length field is classified as corruption, not as a torn
	// tail — it must refuse, never swallow the batch.
	hijacked := append([]byte(nil), valid...)
	hijacked[remapStart+3] = 0xff
	if _, _, err := recoverBytes(t, hijacked); !errors.As(err, &ce) {
		t.Fatalf("length-damaged remap frame: got %v, want *CorruptionError", err)
	}

	seeds := map[string][]byte{
		"valid-leveled-segment": valid,
		"retire-without-remap":  valid[:remapStart],
		"torn-remap":            valid[:remapStart+5],
		"flipped-remap-crc":     flipped,
		"hijacked-remap-len":    hijacked,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWearRecordDecode")
	for name, data := range seeds {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		path := filepath.Join(dir, name)
		if os.Getenv("LEMONADE_UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus %s missing (regenerate with LEMONADE_UPDATE_FUZZ_CORPUS=1): %v", name, err)
		}
		if string(got) != want {
			t.Fatalf("seed corpus %s is stale; regenerate with LEMONADE_UPDATE_FUZZ_CORPUS=1", name)
		}
	}
}
