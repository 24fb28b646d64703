package registry

import (
	"context"
	"errors"
	"fmt"
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

func buildArch(t *testing.T, seed uint64) *core.Architecture {
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
	a, err := core.Build(d, []byte("secret"), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustProvision(t *testing.T, r *Registry, a *core.Architecture, seed uint64) *Entry {
	t.Helper()
	e, err := r.Provision(a, seed, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestProvisionGetRemove(t *testing.T) {
	r := New(0)
	a := buildArch(t, 1)
	e := mustProvision(t, r, a, 1)
	if e.ID != "arch-000001" {
		t.Errorf("first ID = %q, want arch-000001 (IDs must be deterministic)", e.ID)
	}
	got, ok := r.Get(e.ID)
	if !ok || got.Arch != a || got.Seed != 1 {
		t.Fatalf("Get(%q) = (%v, %t)", e.ID, got, ok)
	}
	if _, ok := r.Get("arch-999999"); ok {
		t.Error("Get of unknown ID succeeded")
	}
	if !r.Remove(e.ID) {
		t.Error("Remove returned false for existing entry")
	}
	if r.Remove(e.ID) {
		t.Error("second Remove returned true")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d after removal", r.Len())
	}
}

func TestDeterministicIDSequence(t *testing.T) {
	a := buildArch(t, 1)
	r1, r2 := New(4), New(4)
	for i := 0; i < 5; i++ {
		id1 := mustProvision(t, r1, a, 0).ID
		id2 := mustProvision(t, r2, a, 0).ID
		if id1 != id2 {
			t.Fatalf("provision %d: IDs diverge (%q vs %q)", i, id1, id2)
		}
	}
}

func TestConcurrentProvisionAndLookup(t *testing.T) {
	r := New(8)
	a := buildArch(t, 1)
	const workers, perWorker = 8, 50
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e, err := r.Provision(a, uint64(w), []byte("secret"))
				if err != nil {
					t.Error(err)
					return
				}
				ids[w] = append(ids[w], e.ID)
				if _, ok := r.Get(e.ID); !ok {
					t.Errorf("just-provisioned %q not found", e.ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", r.Len(), workers*perWorker)
	}
	// Every assigned ID is unique.
	seen := map[string]bool{}
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate ID %q", id)
			}
			seen[id] = true
		}
	}
	// Range visits everything exactly once.
	visited := 0
	r.Range(func(e *Entry) bool { visited++; return true })
	if visited != workers*perWorker {
		t.Errorf("Range visited %d, want %d", visited, workers*perWorker)
	}
}

func TestShardDistribution(t *testing.T) {
	r := New(8)
	counts := make(map[*shard]int)
	for i := 0; i < 1000; i++ {
		counts[r.shardFor(fmt.Sprintf("arch-%06d", i))]++
	}
	if len(counts) < 6 {
		t.Errorf("1000 sequential IDs landed on only %d/8 shards", len(counts))
	}
}

// recordingStore captures appended records and can be told to fail —
// either synchronously at Append or asynchronously at Ticket.Wait.
type recordingStore struct {
	mu         sync.Mutex
	provisions []ProvisionRecord
	accesses   []AccessRecord
	stresses   []StressRecord
	batches    [][]Record // every successful Append call, in order
	failNext   error      // next Append returns this error
	failSkip   int        // appends to let through before failNext/failWait applies
	failWait   error      // next ticket's Wait returns this error
	doneCalls  int
}

type recordedTicket struct {
	s   *recordingStore
	err error
}

func (t recordedTicket) Wait() error { return t.err }

func (t recordedTicket) Done() {
	t.s.mu.Lock()
	t.s.doneCalls++
	t.s.mu.Unlock()
}

func (s *recordingStore) Append(recs []Record) (Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failSkip > 0 {
		s.failSkip--
	} else {
		if s.failNext != nil {
			err := s.failNext
			s.failNext = nil
			return nil, err
		}
		if s.failWait != nil {
			err := s.failWait
			s.failWait = nil
			return recordedTicket{s: s, err: err}, nil
		}
	}
	for _, rec := range recs {
		if rec.Provision != nil {
			s.provisions = append(s.provisions, *rec.Provision)
		}
		if rec.Access != nil {
			s.accesses = append(s.accesses, *rec.Access)
		}
		if rec.Stress != nil {
			s.stresses = append(s.stresses, *rec.Stress)
		}
	}
	s.batches = append(s.batches, append([]Record(nil), recs...))
	return recordedTicket{s: s}, nil
}

// TestLogAheadOrdering checks the Store contract: the provision record
// lands before the entry is visible, every access appends its record
// before the hardware fires, and a failed append fails the operation
// closed (no wearout consumed, no secret returned).
func TestLogAheadOrdering(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(4, st)
	e := mustProvision(t, r, buildArch(t, 7), 7)
	if len(st.provisions) != 1 || st.provisions[0].ID != e.ID || st.provisions[0].Seed != 7 {
		t.Fatalf("provision record = %+v", st.provisions)
	}
	if string(st.provisions[0].Secret) != "secret" {
		t.Errorf("provision record secret = %q", st.provisions[0].Secret)
	}

	secret, err := e.Access(context.Background(), nems.RoomTemp)
	if err != nil {
		t.Fatal(err)
	}
	if string(secret) != "secret" {
		t.Fatalf("access returned %q", secret)
	}
	if len(st.accesses) != 1 || st.accesses[0].ID != e.ID || st.accesses[0].TempCelsius != 25 {
		t.Fatalf("access record = %+v", st.accesses)
	}

	// Failed append: fail closed, consume nothing.
	totalBefore, okBefore := e.Arch.Accesses()
	st.failNext = errors.New("disk full")
	if _, err := e.Access(context.Background(), nems.RoomTemp); !errors.Is(err, ErrStore) {
		t.Fatalf("access with failing store: err = %v, want ErrStore", err)
	}
	totalAfter, okAfter := e.Arch.Accesses()
	if totalAfter != totalBefore || okAfter != okBefore {
		t.Errorf("failed append consumed wearout: (%d,%d) -> (%d,%d)",
			totalBefore, okBefore, totalAfter, okAfter)
	}

	// Failed commit (the append enqueued but its ticket resolved with an
	// error — the group-commit fsync failed): same fail-closed outcome.
	st.failWait = errors.New("fsync failed")
	if _, err := e.Access(context.Background(), nems.RoomTemp); !errors.Is(err, ErrStore) {
		t.Fatalf("access with failing commit: err = %v, want ErrStore", err)
	}
	totalAfter, okAfter = e.Arch.Accesses()
	if totalAfter != totalBefore || okAfter != okBefore {
		t.Errorf("failed commit consumed wearout: (%d,%d) -> (%d,%d)",
			totalBefore, okBefore, totalAfter, okAfter)
	}
	// And the failed commit must not wedge the entry: it released the
	// entry lock, so the next access succeeds.
	if _, err := e.Access(context.Background(), nems.RoomTemp); err != nil {
		t.Fatalf("access after failed commit: %v", err)
	}

	// Failed provision append registers nothing.
	st.failNext = errors.New("disk full")
	if _, err := r.Provision(buildArch(t, 8), 8, []byte("x")); !errors.Is(err, ErrStore) {
		t.Fatalf("provision with failing store: err = %v, want ErrStore", err)
	}
	// Failed provision commit registers nothing either.
	st.failWait = errors.New("fsync failed")
	if _, err := r.Provision(buildArch(t, 9), 9, []byte("x")); !errors.Is(err, ErrStore) {
		t.Fatalf("provision with failing commit: err = %v, want ErrStore", err)
	}
	if r.Len() != 1 {
		t.Errorf("failed provision left %d entries, want 1", r.Len())
	}

	if st.doneCalls != len(st.provisions)+len(st.accesses) {
		t.Errorf("done called %d times for %d appends", st.doneCalls, len(st.provisions)+len(st.accesses))
	}
}

// TestAccessCancelledBeforeAppend: a context already done must not reach
// the store or the hardware.
func TestAccessCancelledBeforeAppend(t *testing.T) {
	st := &recordingStore{}
	r := NewWithStore(1, st)
	e := mustProvision(t, r, buildArch(t, 1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Access(ctx, nems.RoomTemp); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(st.accesses) != 0 {
		t.Error("cancelled access reached the store")
	}
	if total, _ := e.Arch.Accesses(); total != 0 {
		t.Error("cancelled access consumed wearout")
	}
}

// TestRestoreAdvancesSequence: recovered IDs must never be reassigned.
func TestRestoreAdvancesSequence(t *testing.T) {
	r := New(2)
	a := buildArch(t, 3)
	if _, err := r.Restore("arch-000005", a, 3, []byte("s")); err != nil {
		t.Fatal(err)
	}
	e := mustProvision(t, r, buildArch(t, 4), 4)
	if e.ID != "arch-000006" {
		t.Errorf("post-restore provision ID = %q, want arch-000006", e.ID)
	}
	if _, err := r.Restore("arch-000005", a, 3, nil); err == nil {
		t.Error("duplicate restore succeeded")
	}
}

// TestListPagination checks deterministic order and the after_id cursor.
func TestListPagination(t *testing.T) {
	r := New(4)
	a := buildArch(t, 1)
	var want []string
	for i := 0; i < 7; i++ {
		want = append(want, mustProvision(t, r, a, uint64(i)).ID)
	}
	var got []string
	after := ""
	for {
		page := r.List(after, 3)
		if len(page) == 0 {
			break
		}
		for _, e := range page {
			got = append(got, e.ID)
		}
		after = page[len(page)-1].ID
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paginated List = %v, want %v", got, want)
	}
	if n := len(r.List("", 0)); n != 7 {
		t.Errorf("List with no limit returned %d", n)
	}
	if n := len(r.List(want[6], 0)); n != 0 {
		t.Errorf("List after last ID returned %d", n)
	}
}

// TestEventsRing checks the per-entry ring buffer: ordering, capacity,
// and the max parameter.
func TestEventsRing(t *testing.T) {
	r := New(1)
	e := mustProvision(t, r, buildArch(t, 5), 5)
	var want []core.AccessEvent
	for i := 0; i < EventRingSize+40; i++ {
		_, err := e.Access(context.Background(), nems.RoomTemp)
		if err != nil && !errors.Is(err, core.ErrTransient) && !errors.Is(err, core.ErrExhausted) {
			t.Fatal(err)
		}
		want = append(want, core.AccessEvent{}) // placeholder; length checked below
	}
	evs := e.Events(0)
	if len(evs) != EventRingSize {
		t.Fatalf("Events(0) returned %d, want %d (ring capacity)", len(evs), EventRingSize)
	}
	// Oldest-first and contiguous: attempts strictly increase by one.
	for i := 1; i < len(evs); i++ {
		if evs[i].Attempt != evs[i-1].Attempt+1 {
			t.Fatalf("events not contiguous at %d: %d then %d", i, evs[i-1].Attempt, evs[i].Attempt)
		}
	}
	if evs[len(evs)-1].Attempt != uint64(len(want)) {
		t.Errorf("newest event attempt = %d, want %d", evs[len(evs)-1].Attempt, len(want))
	}
	if got := e.Events(5); len(got) != 5 || got[4].Attempt != evs[len(evs)-1].Attempt {
		t.Errorf("Events(5) = %d events ending at %d", len(got), got[len(got)-1].Attempt)
	}
}
