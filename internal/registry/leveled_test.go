package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
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

// TestMaintenanceLogsAtomicPlan drives a leveled entry past its remap
// epoch and checks the maintenance contract: the whole plan (retirements
// then the full assignment) is appended as ONE batch, the rotation is
// applied live, and the remap observer sees a success event.
func TestMaintenanceLogsAtomicPlan(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	lv := core.Leveling{Spares: 4, Epoch: 2}
	e := mustProvision(t, r, buildLeveledArch(t, 41, lv), 41)

	var mu sync.Mutex
	var events []RemapEvent
	r.SetRemapObserver(func(ev RemapEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	ctx := context.Background()
	hot := nems.Environment{TempCelsius: 400}
	for i := 0; i < 30 && e.Arch.Remaps() == 0; i++ {
		if _, err := e.Stress(ctx, hot, []int{0}, 1); err != nil {
			t.Fatalf("stress %d: %v", i, err)
		}
	}
	if e.Arch.Remaps() == 0 {
		t.Fatal("maintenance never rotated a leveled entry past its epoch")
	}
	if len(st.remaps) == 0 {
		t.Fatal("no remap record appended")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("remap observer saw nothing")
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("maintenance reported error: %v", ev.Err)
		}
		if ev.ID != e.ID {
			t.Fatalf("remap event for %q, want %q", ev.ID, e.ID)
		}
	}
	// Every batch containing a remap or retire record is a pure
	// maintenance batch: retires (if any) strictly before its remap, and
	// exactly one remap per batch.
	for _, batch := range st.batches {
		remapAt := -1
		for i, rec := range batch {
			switch {
			case rec.Remap != nil:
				if remapAt != -1 {
					t.Fatalf("batch has two remap records: %+v", batch)
				}
				remapAt = i
			case rec.Retire != nil:
				if remapAt != -1 {
					t.Fatalf("retire after remap in batch: %+v", batch)
				}
			case rec.Access != nil || rec.Stress != nil || rec.Provision != nil:
				if remapAt != -1 {
					t.Fatalf("maintenance batch mixes op records: %+v", batch)
				}
			}
		}
		if remapAt != -1 && remapAt != len(batch)-1 {
			t.Fatalf("remap record not last in its batch: %+v", batch)
		}
	}
}

// TestMaintenanceFailureDoesNotFailTheAccess: a store that dies during
// maintenance leaves the access result intact and surfaces the failure
// through the observer; the rotation simply retries after the next op.
func TestMaintenanceFailureDoesNotFailTheAccess(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	lv := core.Leveling{Spares: 4, Epoch: 1}
	e := mustProvision(t, r, buildLeveledArch(t, 51, lv), 51)

	var mu sync.Mutex
	var errs []error
	r.SetRemapObserver(func(ev RemapEvent) {
		mu.Lock()
		if ev.Err != nil {
			errs = append(errs, ev.Err)
		}
		mu.Unlock()
	})

	ctx := context.Background()
	// Age slot 0 so the epoch-1 schedule has a real rotation to do, then
	// make the append AFTER the stress's own — the maintenance batch —
	// fail.
	if _, err := e.Stress(ctx, nems.RoomTemp, []int{0}, 1); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.failSkip, st.failNext = 1, errors.New("disk full")
	st.mu.Unlock()
	if _, err := e.Stress(ctx, nems.RoomTemp, []int{1}, 1); err != nil {
		t.Fatalf("stress failed because maintenance failed: %v", err)
	}
	mu.Lock()
	n := len(errs)
	mu.Unlock()
	if n == 0 {
		t.Fatal("maintenance store failure never reached the observer")
	}
	// The schedule is still pending; the next op retries and succeeds.
	remapsBefore := e.Arch.Remaps()
	if _, err := e.Stress(ctx, nems.RoomTemp, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
	if e.Arch.Remaps() <= remapsBefore {
		t.Fatal("maintenance did not retry after a store failure")
	}
}

// TestLeveledEntryOutlivesTargetedStress is the end-to-end defense check
// at the registry layer: with durable maintenance in the loop, a leveled
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
// recorded batches one at a time into a fresh registry. Every maintenance
// batch must change the copy's remap table or retirement set — a batch
// that does not was planned against state another op's maintenance had
// already rotated, and logging it bumps the remap count and resets the
// epoch for nothing — and the replayed state must equal the live one.
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

	replica := New(4)
	maintenance := 0
	for bi, batch := range st.batches {
		copyIdx := -1
		for _, rec := range batch {
			if rec.Remap != nil {
				copyIdx = rec.Remap.Copy
			}
		}
		var before core.State
		if copyIdx >= 0 {
			maintenance++
			re, _ := replica.Get(e.ID)
			before = re.Arch.State()
		}
		for _, rec := range batch {
			if err := replica.Replay(rec); err != nil {
				t.Fatalf("batch %d: %v", bi, err)
			}
		}
		if copyIdx >= 0 {
			re, _ := replica.Get(e.ID)
			after := re.Arch.State()
			if reflect.DeepEqual(before.Assign[copyIdx], after.Assign[copyIdx]) &&
				reflect.DeepEqual(before.Retired[copyIdx], after.Retired[copyIdx]) {
				t.Errorf("batch %d: maintenance batch on copy %d changed neither its remap table nor its retirements", bi, copyIdx)
			}
		}
	}
	if maintenance == 0 {
		t.Fatal("no maintenance batch was logged")
	}
	re, ok := replica.Get(e.ID)
	if !ok {
		t.Fatal("replay did not provision the entry")
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
		t.Fatal("replaying the recorded batches does not reproduce the live state")
	}
}
