// Package registry holds the provisioned architectures of a lemonaded
// process: a sharded, mutex-striped map from architecture ID to the live
// core.Architecture serving accesses, backed by a pluggable durability
// Store.
//
// Striping keeps registry lookups off each other's locks — the paper's
// serving scenarios (a fleet of phones unlocking, a targeting system
// answering key requests) are many independent architectures hammered
// concurrently, so the registry must never serialize traffic across
// unrelated architectures. Within one architecture ops are serial, as
// they are on the single physical structure: each entry's one lock covers
// an op from its context check through its commit, its apply and the
// wear-leveling rotation that apply makes due.
//
// IDs are assigned from a process-local counter, so a fixed provisioning
// sequence yields a fixed ID sequence — the golden HTTP determinism test
// relies on it. Recovery re-inserts entries under their original IDs and
// advances the counter past them, so IDs never collide across restarts.
//
// # Durability and the log-ahead rule
//
// The paper's security argument is that hardware wearout enforces a
// maximum number of uses. A simulator that forgets consumed accesses on
// restart hands an adversary a fresh budget — exactly the "reset the
// counter" attack wearout exists to prevent. The registry therefore
// routes every state-changing operation through its Store *before* the
// operation takes effect:
//
//   - Provision: the provisioning record (design, seed, secret) is
//     durably appended before the architecture becomes visible.
//   - Access: Entry.Access appends the access-intent record and only then
//     fires the hardware. If the append fails, the access fails closed:
//     no wearout is consumed and no key bytes are revealed. Once the
//     record is durable the access runs to completion even if the client
//     has gone — the log is the commitment point, so a crash replays the
//     access and the budget can only ever be consumed, never refunded.
//   - Stress: the same path as Access; stress is wear, so it is logged
//     ahead exactly like an access.
//
// Wear-leveling rotations are not logged. The plan is a pure function of
// the wear the op records already pin, so the live path applies it right
// after the op that made it due, inside that op's commit, and Replay
// re-derives it at the same point. Retire and remap records are read,
// never written: logs from earlier versions still carry them, and Replay
// accepts them without applying what they recorded.
//
// The default NullStore keeps the pre-durability behaviour (everything in
// memory, nothing survives a restart); internal/wal provides the
// disk-backed implementation.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
)

// DefaultShards is the stripe count used by New when given 0. 32 stripes
// keep contention negligible for hundreds of concurrent handlers while
// costing only a few hundred bytes.
const DefaultShards = 32

// EventRingSize is the per-architecture capacity of the recent-access
// event buffer served by GET /v1/architectures/{id}/events.
const EventRingSize = 128

// ErrStore wraps every durability failure surfaced by a Store, so the
// HTTP layer can classify fail-closed refusals without knowing the store
// implementation.
var ErrStore = errors.New("registry: durable store append failed")

// ErrExists reports a caller-named provision (ProvisionShare) whose ID is
// already registered. Minted IDs never collide; only the cluster share
// path, where the ID is derived from placement, can race itself.
var ErrExists = errors.New("registry: id already provisioned")

// ProvisionRecord is the durable description of one provisioned
// architecture: everything needed to rebuild the identical simulated
// hardware (core.Build is deterministic in these three inputs).
type ProvisionRecord struct {
	ID     string     `json:"id"`
	Seed   uint64     `json:"seed"`
	Secret []byte     `json:"secret"`
	Design dse.Design `json:"design"`
	// Wear-leveling configuration; both zero for the unleveled variant, so
	// pre-leveling records decode (and re-encode) unchanged. A leveled
	// architecture rebuilds via core.BuildLeveled with these parameters.
	Spares     int    `json:"spares,omitempty"`
	RemapEpoch uint64 `json:"remap_epoch,omitempty"`
}

// AccessRecord is the durable intent to fire one access. The environment
// is part of the record because wear acceleration depends on it; with the
// per-architecture record order this pins the full wear trajectory.
type AccessRecord struct {
	ID          string  `json:"id"`
	TempCelsius float64 `json:"temp_celsius"`
}

// StressRecord is the durable intent to serve one adversarial stress
// burst: Pulses actuations of each targeted logical share index under the
// recorded environment. Stress consumes wearout without revealing key
// bytes, but it is wear all the same — it must be logged ahead exactly
// like an access, or a crash would refund the attacker's damage.
type StressRecord struct {
	ID          string  `json:"id"`
	TempCelsius float64 `json:"temp_celsius"`
	Indices     []int   `json:"indices"`
	Pulses      int     `json:"pulses"`
}

// RetireRecord is the retirement half of a wear-leveling plan, as earlier
// versions logged it. It is read, never written: Replay re-derives the
// plan instead of applying the record.
type RetireRecord struct {
	ID       string `json:"id"`
	Copy     int    `json:"copy"`
	Physical int    `json:"physical"`
}

// RemapRecord is the assignment half of a wear-leveling plan, as earlier
// versions logged it. It is read, never written: Replay re-derives the
// plan instead of applying the record.
type RemapRecord struct {
	ID     string `json:"id"`
	Copy   int    `json:"copy"`
	Assign []int  `json:"assign"`
}

// Record is one registry mutation submitted to a Store: exactly one of
// the pointer fields is set. A Store may frame many Records (from many
// callers) into a single durable write. Remap and Retire appear only in
// logs written by earlier versions.
type Record struct {
	Provision *ProvisionRecord `json:"p,omitempty"`
	Access    *AccessRecord    `json:"a,omitempty"`
	Stress    *StressRecord    `json:"s,omitempty"`
	Remap     *RemapRecord     `json:"r,omitempty"`
	Retire    *RetireRecord    `json:"x,omitempty"`
}

// RecordKinds names the Record variants, indexed by Record.Kind.
var RecordKinds = [...]string{"provision", "access", "stress", "remap", "retire"}

// Kind returns the index in RecordKinds of the one variant rec sets. A
// record that sets none, or more than one, cannot be applied: the writer
// refuses it and replay treats it as damage.
func (rec Record) Kind() (int, error) {
	variants := [len(RecordKinds)]bool{
		rec.Provision != nil, rec.Access != nil, rec.Stress != nil, rec.Remap != nil, rec.Retire != nil,
	}
	kind, set := 0, 0
	for k, ok := range variants {
		if ok {
			kind, set = k, set+1
		}
	}
	switch set {
	case 0:
		return 0, errors.New("registry: empty record")
	case 1:
		return kind, nil
	default:
		return 0, errors.New("registry: record sets more than one variant")
	}
}

// Ticket is the durability handle returned by Store.Append. The records
// of one Append call always commit (or fail) together, and possibly
// alongside other calls' records in the same commit group.
//
//   - Wait blocks until the containing commit group is durably on disk
//     (fsynced), returning nil, or the group's failure — in which case
//     the caller must fail closed: none of the submitted records may
//     take in-memory effect.
//   - Done MUST be called exactly once after Wait returned nil and the
//     records' in-memory effect has been applied. The WAL store uses it
//     to hold its snapshot barrier open so a snapshot can never capture
//     a state its log position is ahead of, or behind. After a non-nil
//     Wait, Done must not be called.
//
// Wait is idempotent; calling it again returns the same result.
type Ticket interface {
	Wait() error
	Done()
}

// Store is the registry's durability backend. Append stages recs for a
// durable write and returns a Ticket that resolves when the containing
// commit group is fsynced; Append itself only fails on malformed input
// or a store that cannot accept work (closed, unrecovered, poisoned).
// The log-ahead rule lives in the caller: Ticket.Wait is the commit
// barrier that must be crossed before any wear-state mutation fires.
type Store interface {
	Append(recs []Record) (Ticket, error)
}

// readyTicket is the already-durable Ticket used by NullStore (and any
// store whose appends complete synchronously).
type readyTicket struct{}

func (readyTicket) Wait() error { return nil }
func (readyTicket) Done()       {}

// NullStore is the in-memory Store: appends succeed instantly and nothing
// survives a restart. It is the default for tests and for deployments
// that explicitly opt out of persistence.
type NullStore struct{}

// Append implements Store as a no-op: the ticket is immediately durable.
func (NullStore) Append([]Record) (Ticket, error) { return readyTicket{}, nil }

// Entry is one provisioned architecture.
type Entry struct {
	ID   string
	Arch *core.Architecture
	Seed uint64 // provisioning seed, echoed for reproducibility audits
	// Secret is retained for snapshotting: a snapshot must be able to
	// rebuild the architecture from (design, secret, seed). The WAL
	// already carries it — the simulated hardware "physically stores" the
	// secret, and the data directory is that hardware's flash.
	Secret []byte

	store Store
	// mu makes the entry's ops one at a time: commit holds it from the
	// context check through the apply and the rotation, so the log's
	// per-architecture record order equals the apply order (what makes
	// replay bit-identical) and each rotation follows the op that made it
	// due, as it does in replay. Other entries' commits share fsyncs freely.
	mu sync.Mutex

	evMu    sync.Mutex
	events  []core.AccessEvent // guarded by evMu; ring of the EventRingSize most recent events
	evCount uint64             // guarded by evMu; events ever observed; write cursor is evCount % size
}

// Access durably records then performs one wearout-consuming access
// through commit, the log-ahead path, holding the entry lock throughout.
// If staging or the commit fails, the access fails closed: no wearout is
// consumed and no key bytes are revealed. After the commit succeeds the
// access runs to completion even if ctx is cancelled mid-flight, because
// a durable record with no matching wear would replay into *extra*
// consumed budget on recovery, never less, and the architecture must
// agree with its log. A wear-leveling rotation the access makes due is
// applied before the lock is released.
func (e *Entry) Access(ctx context.Context, env nems.Environment) ([]byte, error) {
	secret, _, err := e.commit(ctx, Record{Access: &AccessRecord{ID: e.ID, TempCelsius: env.TempCelsius}})
	return secret, err
}

// Stress durably records then serves one adversarial stress burst against
// the entry's architecture: pulses actuations of each targeted share
// index under env. It follows the exact log-ahead path of Access —
// stress consumes wearout, so a crash must replay it, never refund it —
// including the rotation it makes due. The returned count is how many
// actuations conducted; no key bytes are ever derived on this path.
func (e *Entry) Stress(ctx context.Context, env nems.Environment, indices []int, pulses int) (int, error) {
	dup := make([]int, len(indices))
	copy(dup, indices)
	_, conducted, err := e.commit(ctx, Record{Stress: &StressRecord{
		ID: e.ID, TempCelsius: env.TempCelsius, Indices: dup, Pulses: pulses,
	}})
	return conducted, err
}

// commit is the entry's one log-ahead path. Under the entry lock it
// checks the context, stages rec with the store, blocks on the commit
// ticket — the barrier that proves the record is fsynced — and only then
// applies it. If staging or the commit fails, nothing applies. It returns
// the secret of an access record and the conducted count of a stress
// record.
//
// After the apply, whatever its outcome, commit applies the rotation the
// wear-leveling schedule now calls for, if any, without logging it: the
// plan is a pure function of the wear the log already pins, and Replay
// derives the same one after the same record. Its cause, the op record,
// is durable by now, and the rotation lands before tkt.Done releases the
// snapshot barrier, so no snapshot holds an op without its rotation.
func (e *Entry) commit(ctx context.Context, rec Record) (secret []byte, conducted int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	tkt, err := e.store.Append([]Record{rec})
	if err != nil {
		// Double-wrap so callers can classify both the fact that the store
		// failed (ErrStore) and why (e.g. resilience.ErrOpen ⇒ 503, not 500).
		return nil, 0, fmt.Errorf("%w: %w", ErrStore, err)
	}
	if werr := tkt.Wait(); werr != nil {
		// The commit group failed: the record never became durable, so the
		// op fails closed.
		return nil, 0, fmt.Errorf("%w: %w", ErrStore, werr)
	}
	// Deferred, not inline: a panic inside the architecture must still
	// release the ticket's snapshot-barrier share, or every future
	// Snapshot wedges on a hold nobody can drop.
	defer tkt.Done()
	switch {
	case rec.Access != nil:
		secret, err = e.Arch.Access(nems.Environment{TempCelsius: rec.Access.TempCelsius})
	case rec.Stress != nil:
		conducted, err = e.Arch.Stress(nems.Environment{TempCelsius: rec.Stress.TempCelsius}, rec.Stress.Indices, rec.Stress.Pulses)
	}
	if plan, ok := e.Arch.PendingRemap(); ok {
		// The plan was just read from this state under the entry lock, so
		// it always fits the hardware; these cannot fail.
		for _, p := range plan.Retire {
			_ = e.Arch.Retire(plan.Copy, p)
		}
		_ = e.Arch.ApplyRemap(plan.Copy, plan.Assign)
	}
	return secret, conducted, err
}

// observe appends ev to the entry's ring buffer; installed as the
// architecture's observer, so it runs under the architecture lock.
func (e *Entry) observe(ev core.AccessEvent) {
	e.evMu.Lock()
	defer e.evMu.Unlock()
	if e.events == nil {
		e.events = make([]core.AccessEvent, EventRingSize)
	}
	e.events[e.evCount%EventRingSize] = ev
	e.evCount++
}

// Events returns up to max recent access events, oldest first. max <= 0
// means all buffered events. The buffer is in-memory telemetry: after a
// restart it holds only the events replayed since the last snapshot.
func (e *Entry) Events(max int) []core.AccessEvent {
	e.evMu.Lock()
	defer e.evMu.Unlock()
	n := e.evCount
	if n > EventRingSize {
		n = EventRingSize
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]core.AccessEvent, 0, n)
	for i := e.evCount - n; i < e.evCount; i++ {
		out = append(out, e.events[i%EventRingSize])
	}
	return out
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*Entry // guarded by mu
}

// Registry is a sharded architecture store, safe for concurrent use.
type Registry struct {
	shards []shard
	seq    atomic.Uint64
	store  Store

	// provMu serializes caller-named provisions (ProvisionShare) across
	// the exists-check, the durable append and the insert: without it two
	// racing provisions of the same share ID could both log a
	// ProvisionRecord, and recovery — which refuses duplicate IDs — would
	// fail on a log the live process accepted. Minted-ID provisions don't
	// take it; their IDs are unique by construction.
	provMu sync.Mutex
}

// New returns a registry with the given stripe count (0 → DefaultShards)
// and no durability (NullStore).
func New(shards int) *Registry { return NewWithStore(shards, nil) }

// NewWithStore returns a registry whose mutations are made durable
// through st (nil → NullStore).
func NewWithStore(shards int, st Store) *Registry {
	if shards < 1 {
		shards = DefaultShards
	}
	if st == nil {
		st = NullStore{}
	}
	r := &Registry{shards: make([]shard, shards), store: st}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*Entry)
	}
	return r
}

// shardFor picks the stripe for id by FNV-1a.
func (r *Registry) shardFor(id string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return &r.shards[h%uint64(len(r.shards))]
}

// idNum extracts the numeric suffix of a registry ID ("arch-000042" → 42);
// ok is false for foreign IDs.
func idNum(id string) (uint64, bool) {
	rest, found := strings.CutPrefix(id, "arch-")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Provision durably records then stores a freshly built architecture,
// returning its entry with a newly assigned ID. If staging or the commit
// fails, the architecture is not registered (fail closed) and the
// assigned ID is burned — gaps in the sequence are acceptable, replayed
// IDs are not.
func (r *Registry) Provision(arch *core.Architecture, seed uint64, secret []byte) (*Entry, error) {
	id := fmt.Sprintf("arch-%06d", r.seq.Add(1))
	return r.provisionLogged(id, arch, seed, secret)
}

// ProvisionShare durably records then stores an architecture under a
// caller-supplied ID — the cluster share path, where the ID encodes the
// placement (cluster.ShareID) instead of being minted here. IDs outside
// the minted arch-%06d namespace leave the ID counter untouched; a
// duplicate ID fails with ErrExists before anything is logged.
func (r *Registry) ProvisionShare(id string, arch *core.Architecture, seed uint64, secret []byte) (*Entry, error) {
	if id == "" {
		return nil, fmt.Errorf("registry: empty share id")
	}
	r.provMu.Lock()
	defer r.provMu.Unlock()
	if _, ok := r.Get(id); ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	return r.provisionLogged(id, arch, seed, secret)
}

// provisionLogged is the shared log-ahead tail of Provision and
// ProvisionShare: append the provisioning record, cross the commit
// barrier, then make the architecture visible. If staging or the commit
// fails, the architecture is not registered (fail closed); a burned
// minted ID leaves an acceptable gap in the sequence.
func (r *Registry) provisionLogged(id string, arch *core.Architecture, seed uint64, secret []byte) (*Entry, error) {
	dup := make([]byte, len(secret))
	copy(dup, secret)
	rec := &ProvisionRecord{ID: id, Seed: seed, Secret: dup, Design: arch.Design()}
	if lv, ok := arch.Leveling(); ok {
		rec.Spares = lv.Spares
		rec.RemapEpoch = lv.Epoch
	}
	tkt, err := r.store.Append([]Record{{Provision: rec}})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStore, err)
	}
	if werr := tkt.Wait(); werr != nil {
		return nil, fmt.Errorf("%w: %w", ErrStore, werr)
	}
	defer tkt.Done()
	return r.insert(id, arch, seed, dup), nil
}

// Restore inserts a recovered architecture under its original ID without
// touching the store (the record that justifies it is already on disk),
// and advances the ID counter past it.
func (r *Registry) Restore(id string, arch *core.Architecture, seed uint64, secret []byte) (*Entry, error) {
	if _, ok := r.Get(id); ok {
		return nil, fmt.Errorf("registry: restore: duplicate id %q", id)
	}
	if n, ok := idNum(id); ok {
		for {
			cur := r.seq.Load()
			if cur >= n || r.seq.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	dup := make([]byte, len(secret))
	copy(dup, secret)
	return r.insert(id, arch, seed, dup), nil
}

// Replay applies one record that is already durable in the log, without
// appending it again: a provision rebuilds its architecture and Restores
// it, and an access or stress fires the same architecture mutation commit
// fires live. Replay discards access and stress outcomes, which the state
// fully determines, exactly as it did the first time. It fails on a
// record that names an unknown architecture.
//
// After every record but a provision, Replay applies the rotation the
// schedule then calls for, as commit does live. A retire or remap record,
// which only earlier versions wrote, applies nothing itself: the rotation
// it recorded was re-derived after the op that made it due. The check at
// the record matters only when a snapshot of such a version captured that
// op without its rotation; the rotation then lands here, where it did.
func (r *Registry) Replay(rec Record) error {
	k, err := rec.Kind()
	if err != nil {
		return err
	}
	if p := rec.Provision; p != nil {
		arch, err := RebuildArch(p.Design, p.Secret, p.Seed, p.Spares, p.RemapEpoch)
		if err != nil {
			return fmt.Errorf("registry: rebuilding %s: %w", p.ID, err)
		}
		_, err = r.Restore(p.ID, arch, p.Seed, p.Secret)
		return err
	}
	var id string
	switch {
	case rec.Access != nil:
		id = rec.Access.ID
	case rec.Stress != nil:
		id = rec.Stress.ID
	case rec.Retire != nil:
		id = rec.Retire.ID
	case rec.Remap != nil:
		id = rec.Remap.ID
	}
	e, ok := r.Get(id)
	if !ok {
		return fmt.Errorf("registry: %s record for unknown architecture %s", RecordKinds[k], id)
	}
	switch {
	case rec.Access != nil:
		//lemonvet:allow logahead replay applies a record already durable in the log; appending again would double-count
		_, _ = e.Arch.Access(nems.Environment{TempCelsius: rec.Access.TempCelsius})
	case rec.Stress != nil:
		//lemonvet:allow logahead replay applies a record already durable in the log; appending again would double-count
		_, _ = e.Arch.Stress(nems.Environment{TempCelsius: rec.Stress.TempCelsius}, rec.Stress.Indices, rec.Stress.Pulses)
	}
	if plan, ok := e.Arch.PendingRemap(); ok {
		for _, p := range plan.Retire {
			//lemonvet:allow logahead a derived rotation follows from the durable record just replayed; it has no record of its own
			_ = e.Arch.Retire(plan.Copy, p)
		}
		//lemonvet:allow logahead a derived rotation follows from the durable record just replayed; it has no record of its own
		_ = e.Arch.ApplyRemap(plan.Copy, plan.Assign)
	}
	return nil
}

// RebuildArch deterministically refabricates an architecture from its
// provisioning parameters, choosing the wear-leveled variant when the
// durable record pinned one. Replay and snapshot restore share it.
func RebuildArch(design dse.Design, secret []byte, seed uint64, spares int, epoch uint64) (*core.Architecture, error) {
	if spares > 0 || epoch > 0 {
		return core.BuildLeveled(design, secret, core.Leveling{Spares: spares, Epoch: epoch}, rng.New(seed))
	}
	return core.Build(design, secret, rng.New(seed))
}

func (r *Registry) insert(id string, arch *core.Architecture, seed uint64, secret []byte) *Entry {
	e := &Entry{ID: id, Arch: arch, Seed: seed, Secret: secret, store: r.store}
	arch.SetObserver(e.observe)
	s := r.shardFor(id)
	s.mu.Lock()
	s.m[id] = e
	s.mu.Unlock()
	return e
}

// Get returns the entry for id.
func (r *Registry) Get(id string) (*Entry, bool) {
	s := r.shardFor(id)
	s.mu.RLock()
	e, ok := s.m[id]
	s.mu.RUnlock()
	return e, ok
}

// Remove deletes the entry for id, reporting whether it existed. The
// architecture itself is unaffected — wearout state is physical and
// removal only unlists it.
func (r *Registry) Remove(id string) bool {
	s := r.shardFor(id)
	s.mu.Lock()
	_, ok := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	return ok
}

// Len returns the number of registered architectures.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// List returns up to limit entries whose IDs sort strictly after afterID,
// in deterministic ascending ID order (numeric on the assigned suffix, so
// ordering stays correct past arch-999999). limit <= 0 means no limit.
// The pagination contract: pass the last returned ID as the next afterID.
func (r *Registry) List(afterID string, limit int) []*Entry {
	var all []*Entry
	r.Range(func(e *Entry) bool {
		all = append(all, e)
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		ni, iok := idNum(all[i].ID)
		nj, jok := idNum(all[j].ID)
		if iok && jok {
			return ni < nj
		}
		return all[i].ID < all[j].ID
	})
	if afterID != "" {
		na, aok := idNum(afterID)
		cut := sort.Search(len(all), func(i int) bool {
			ni, iok := idNum(all[i].ID)
			if aok && iok {
				return ni > na
			}
			return all[i].ID > afterID
		})
		all = all[cut:]
	}
	if limit > 0 && limit < len(all) {
		all = all[:limit]
	}
	return all
}

// Range calls fn for every entry until fn returns false. Iteration order
// is unspecified; entries added or removed concurrently may or may not be
// visited.
func (r *Registry) Range(fn func(*Entry) bool) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		entries := make([]*Entry, 0, len(s.m))
		for _, e := range s.m {
			entries = append(entries, e)
		}
		s.mu.RUnlock()
		for _, e := range entries {
			if !fn(e) {
				return
			}
		}
	}
}
