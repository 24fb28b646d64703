package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

func buildLeveledArch(t *testing.T, seed uint64, lv core.Leveling) *core.Architecture {
	t.Helper()
	spec := dse.Spec{
		Dist:     weibull.MustNew(8, 8),
		Criteria: reliability.DefaultCriteria,
		LAB:      10,
		KFrac:    0.1,
	}
	d, err := dse.Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.BuildLeveled(d, []byte("secret"), lv, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestStressLogAhead pins the stress pipeline to the same contract as
// Access: the record lands before the hardware fires, and a failed append
// or commit fails closed — the attacker's burst consumes nothing.
func TestStressLogAhead(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	e := mustProvision(t, r, buildArch(t, 21), 21)
	ctx := context.Background()

	hot := nems.Environment{TempCelsius: 400}
	// Room temperature for the conduction check: a hot pulse can kill a
	// short-lived switch on its very first actuation, and the killing
	// actuation does not conduct.
	conducted, err := e.Stress(ctx, nems.RoomTemp, []int{0, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if conducted == 0 {
		t.Fatal("stress on a fresh architecture conducted nothing")
	}
	if len(st.stresses) != 1 {
		t.Fatalf("stress records = %+v, want exactly 1", st.stresses)
	}
	rec := st.stresses[0]
	if rec.ID != e.ID || rec.TempCelsius != 25 || rec.Pulses != 3 ||
		len(rec.Indices) != 2 || rec.Indices[0] != 0 || rec.Indices[1] != 1 {
		t.Fatalf("stress record = %+v", rec)
	}

	before := e.Arch.Stressed()
	st.failNext = errors.New("disk full")
	if _, err := e.Stress(ctx, hot, []int{0}, 1); !errors.Is(err, ErrStore) {
		t.Fatalf("stress with failing store: err = %v, want ErrStore", err)
	}
	st.failWait = errors.New("fsync failed")
	if _, err := e.Stress(ctx, hot, []int{0}, 1); !errors.Is(err, ErrStore) {
		t.Fatalf("stress with failing commit: err = %v, want ErrStore", err)
	}
	if got := e.Arch.Stressed(); got != before {
		t.Errorf("failed stress consumed budget: %d -> %d", before, got)
	}
	// A failed commit must not wedge the entry lock.
	if _, err := e.Stress(ctx, hot, []int{0}, 1); err != nil {
		t.Fatalf("stress after failed commit: %v", err)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	appends := len(st.batches)
	if _, err := e.Stress(canceled, hot, []int{0}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("stress on canceled ctx = %v", err)
	}
	if len(st.batches) != appends {
		t.Error("canceled stress reached the store")
	}
}

// TestProvisionRecordCarriesLeveling: the provision record of a leveled
// architecture pins (spares, epoch) so recovery rebuilds the same variant.
func TestProvisionRecordCarriesLeveling(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	lv := core.Leveling{Spares: 3, Epoch: 5}
	mustProvision(t, r, buildLeveledArch(t, 31, lv), 31)
	if len(st.provisions) != 1 {
		t.Fatalf("provisions = %+v", st.provisions)
	}
	if got := st.provisions[0]; got.Spares != 3 || got.RemapEpoch != 5 {
		t.Fatalf("provision record leveling = (%d, %d), want (3, 5)", got.Spares, got.RemapEpoch)
	}

	// Unleveled provisioning keeps the zero values (and, per omitempty,
	// the pre-leveling wire encoding).
	mustProvision(t, r, buildArch(t, 32), 32)
	if got := st.provisions[1]; got.Spares != 0 || got.RemapEpoch != 0 {
		t.Fatalf("unleveled provision record leveling = (%d, %d), want (0, 0)", got.Spares, got.RemapEpoch)
	}
}

// TestLeveledEntryOutlivesTargetedStress is the end-to-end defense check
// at the registry layer: with derived rotations in the loop, a leveled
// entry under a targeted hot-stress pattern keeps revealing strictly
// longer than an unleveled entry under the identical pattern.
func TestLeveledEntryOutlivesTargetedStress(t *testing.T) {
	ctx := context.Background()
	hot := nems.Environment{TempCelsius: 400}

	survive := func(e *Entry) int {
		ok := 0
		for i := 0; i < 3000; i++ {
			if _, err := e.Stress(ctx, hot, []int{0, 1}, 1); errors.Is(err, core.ErrExhausted) {
				return ok
			}
			_, err := e.Access(ctx, nems.RoomTemp)
			if errors.Is(err, core.ErrExhausted) {
				return ok
			}
			if err == nil {
				ok++
			}
		}
		return ok
	}

	// A full spare complement (spares = n): the buildArch spec explores a
	// wide structure, so a token spare count would vanish into natural
	// wear — the defense claim needs pool headroom proportional to n.
	rPlain := NewWithStore(2, &recordingStore{})
	plain := mustProvision(t, rPlain, buildArch(t, 61), 61)
	n := plain.Arch.Design().N
	rLvl := NewWithStore(2, &recordingStore{})
	lvl := mustProvision(t, rLvl, buildLeveledArch(t, 61, core.Leveling{Spares: n, Epoch: 2}), 61)

	plainOK := survive(plain)
	leveledOK := survive(lvl)
	if leveledOK <= plainOK {
		t.Fatalf("leveled entry served %d reveals under attack, unleveled %d; want strictly more",
			leveledOK, plainOK)
	}
}

// TestConcurrentOpsOnOneEntry races 8 goroutines of alternating
// hot-stress and access ops on one leveled entry, then replays the
// recorded batches into a fresh registry. Each batch must be one op
// record — rotations are derived, never logged — and the replayed state
// must equal the live one. A rotation applied outside the entry lock
// could be applied twice by two racing ops, which the replay, deriving
// each rotation once after the op that made it due, does not reproduce.
func TestConcurrentOpsOnOneEntry(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	e := mustProvision(t, r, buildLeveledArch(t, 71, core.Leveling{Spares: 4, Epoch: 1}), 71)

	ctx := context.Background()
	hot := nems.Environment{TempCelsius: 400}
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var err error
				if (w+i)%2 == 0 {
					_, err = e.Stress(ctx, hot, []int{0}, 1)
				} else {
					_, err = e.Access(ctx, nems.RoomTemp)
				}
				if err != nil && !errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrExhausted) {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if e.Arch.Remaps() == 0 {
		t.Fatal("the ops never rotated the entry")
	}
	replica := New(4)
	replayAll(t, replica, st.batches)
	assertReplayEqualsLive(t, replica, e)
}

// replayAll checks that every batch is a single provision, access or
// stress record, and replays it into reg.
func replayAll(t *testing.T, reg *Registry, batches [][]Record) {
	t.Helper()
	for bi, batch := range batches {
		if len(batch) != 1 {
			t.Fatalf("batch %d holds %d records, want one op record", bi, len(batch))
		}
		if batch[0].Retire != nil || batch[0].Remap != nil {
			t.Fatalf("batch %d appended a rotation record %+v; only op records may be", bi, batch[0])
		}
		if err := reg.Replay(batch[0]); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
	}
}

// assertReplayEqualsLive compares e's State JSON with its twin in replica.
func assertReplayEqualsLive(t *testing.T, replica *Registry, e *Entry) {
	t.Helper()
	re, ok := replica.Get(e.ID)
	if !ok {
		t.Fatalf("replay did not provision %s", e.ID)
	}
	live, err := json.Marshal(e.Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := json.Marshal(re.Arch.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replayed) {
		t.Fatalf("%s: replaying the committed records does not reproduce the live state:\n  live %s\nreplay %s", e.ID, live, replayed)
	}
}

// TestDerivedRotationReplaysLive drives three leveled entries through a
// seeded mix of access and stress at mixed temperatures while a seeded
// subset of appends fails, at Append or at Wait, until every entry is
// worn out. After every op the log must hold op records only, and
// replaying the committed records into a fresh registry must give the
// op's entry's State JSON byte for byte (and every entry's at the end):
// the rotations that live ops made due are exactly the ones replay
// derives, after ops that failed in the hardware included.
func TestDerivedRotationReplaysLive(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	// A pool of at least k spares keeps a copy whose in-service switches
	// all wear out together in service, so the access that finds them
	// dead fails transiently and makes a repair rotation due.
	n := buildArch(t, 80).Design().N
	var entries []*Entry
	for i, lv := range []core.Leveling{{Spares: n, Epoch: 1}, {Spares: n / 2, Epoch: 3}, {Spares: 4, Epoch: 2}} {
		seed := uint64(81 + i)
		entries = append(entries, mustProvision(t, r, buildLeveledArch(t, seed, lv), seed))
	}
	replica := New(4)
	replayed := 0

	src := rng.New(31)
	temps := []float64{-40, 25, 150, 400}
	ctx := context.Background()
	var failed, rotations, afterTransient int
	alive := func() bool {
		for _, e := range entries {
			if e.Arch.Alive() {
				return true
			}
		}
		return false
	}
	for op := 0; op < 1000 && alive(); op++ {
		e := entries[src.Intn(len(entries))]
		switch src.Intn(8) {
		case 0:
			st.failNext = errors.New("disk full")
		case 1:
			st.failWait = errors.New("fsync failed")
		}
		env := nems.Environment{TempCelsius: temps[src.Intn(len(temps))]}
		before := e.Arch.Remaps()
		var err error
		if src.Intn(3) == 0 {
			_, err = e.Stress(ctx, env, []int{src.Intn(n), src.Intn(n)}, 1+src.Intn(3))
		} else {
			_, err = e.Access(ctx, env)
		}
		switch {
		case errors.Is(err, ErrStore):
			failed++
		case err != nil && !errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrDecodeFailed) &&
			!errors.Is(err, core.ErrExhausted):
			t.Fatalf("op %d: %v", op, err)
		}
		if e.Arch.Remaps() > before {
			rotations++
			if errors.Is(err, core.ErrTransient) {
				afterTransient++
			}
		}

		replayAll(t, replica, st.batches[replayed:])
		replayed = len(st.batches)
		assertReplayEqualsLive(t, replica, e)
	}
	for _, e := range entries {
		assertReplayEqualsLive(t, replica, e)
	}
	// The seed must cover what the checks are for.
	if failed == 0 || rotations == 0 || afterTransient == 0 {
		t.Fatalf("seeded run covered %d failed commits, %d rotations, %d rotations after a transient access; want each > 0",
			failed, rotations, afterTransient)
	}
	t.Logf("%d failed commits, %d rotations, %d after a transient access", failed, rotations, afterTransient)
}

// TestReplayAcceptsLoggedRotations: retire and remap records, which only
// earlier versions wrote, still decode and name their architecture, but
// apply nothing of what they recorded — not even a table the hardware
// would refuse.
func TestReplayAcceptsLoggedRotations(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	e := mustProvision(t, r, buildLeveledArch(t, 91, core.Leveling{Spares: 2, Epoch: 4}), 91)
	replica := New(4)
	replayAll(t, replica, st.batches)
	for _, rec := range []Record{
		{Retire: &RetireRecord{ID: e.ID, Copy: 0, Physical: 1 << 20}},
		{Remap: &RemapRecord{ID: e.ID, Copy: 0, Assign: []int{-1}}},
	} {
		if err := replica.Replay(rec); err != nil {
			t.Fatalf("replaying a logged %+v: %v", rec, err)
		}
	}
	assertReplayEqualsLive(t, replica, e)
	if err := replica.Replay(Record{Remap: &RemapRecord{ID: "arch-999999"}}); err == nil {
		t.Fatal("a remap record for an unknown architecture replayed")
	}
}
