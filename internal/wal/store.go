package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/fault"
	"lemonade/internal/metrics"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/rng"
)

// Config parameterizes a DiskStore.
type Config struct {
	// Dir is the data directory; created if missing.
	Dir string
	// NowNanos supplies timestamps for snapshot metadata and fsync
	// latency measurement (the package obeys the determinism contract and
	// never reads the wall clock itself). Nil observes everything as zero.
	NowNanos func() int64
	// Metrics receives the WAL's instrumentation; nil uses a private
	// registry (metrics still work, nobody scrapes them).
	Metrics *metrics.Registry
	// SnapshotThreshold, when > 0, signals SnapshotNeeded once that many
	// records accumulate since the last snapshot.
	SnapshotThreshold int
	// FS is the filesystem the store performs durability through. Nil
	// uses the real one (fault.OS); tests and chaos runs supply a
	// fault.Injector.
	FS fault.FS
	// MaxBatch caps how many queued Append calls the committer folds into
	// one durable write + fsync (default 64). Larger batches amortize the
	// fsync further at the cost of per-request latency under saturation.
	MaxBatch int
	// MaxQueue caps how many Append calls may be queued ahead of the
	// committer before new appends block (default 1024) — backpressure,
	// so a stalled disk surfaces as latency instead of unbounded memory.
	MaxQueue int
}

// record is the JSON payload of one WAL frame.
type record struct {
	Type      string                    `json:"t"` // "provision" | "access" | "stress" | "remap" | "retire"
	Provision *registry.ProvisionRecord `json:"p,omitempty"`
	Access    *registry.AccessRecord    `json:"a,omitempty"`
	Stress    *registry.StressRecord    `json:"s,omitempty"`
	Remap     *registry.RemapRecord     `json:"r,omitempty"`
	Retire    *registry.RetireRecord    `json:"x,omitempty"`
}

// RecoveryStats summarizes what Recover did, for startup logging and the
// recovery metrics.
type RecoveryStats struct {
	SnapshotEpoch            uint64 // 0 = recovered without a snapshot
	SnapshotCreatedUnixNanos int64
	SnapshotArchitectures    int
	ReplayedProvisions       int
	ReplayedAccesses         int
	ReplayedStresses         int
	ReplayedRetires          int
	ReplayedRemaps           int
	TornBytesTruncated       int64
	Segments                 int // segments replayed
}

// ReplayedRecords is the total record count the recovery replayed.
func (st RecoveryStats) ReplayedRecords() int {
	return st.ReplayedProvisions + st.ReplayedAccesses + st.ReplayedStresses +
		st.ReplayedRetires + st.ReplayedRemaps
}

// DiskStore is the disk-backed registry.Store: an append-only segmented
// WAL plus snapshot compaction, committed by a single group-commit
// goroutine. Create with Open, then call Recover exactly once before any
// append; Close drains the commit queue. All methods are safe for
// concurrent use.
//
// Group commit: Append frames its records off the caller's goroutine and
// enqueues them; the committer drains the queue, writes every pending
// frame in one segment write, issues ONE fsync, and resolves every
// ticket in the group. The log-ahead rule survives per request because
// each caller still blocks on its ticket before any wear-state mutation
// fires — batching amortizes the fsync, it never skips it.
type DiskStore struct {
	dir       string
	fs        fault.FS
	now       func() int64
	threshold int
	maxBatch  int
	maxQueue  int

	// barrier orders commits against snapshots: the committer takes ONE
	// shared hold per commit group before the durable write, refcounted
	// across the group's tickets, and the last Ticket.Done — every
	// member's records have taken their in-memory effect — releases it
	// (the committer itself releases it when the group fails). Snapshot
	// holds it exclusively while capturing state and rotating segments,
	// so a snapshot can never observe a state its log position is ahead
	// of or behind. One RLock per group, not per member: sync.RWMutex
	// blocks new RLocks once a writer is pending, so a per-member RLock
	// loop interleaving with Snapshot's Lock would deadlock both sides.
	barrier sync.RWMutex

	mu        sync.Mutex
	cur       fault.File // guarded by mu
	curSeq    uint64     // guarded by mu
	curOff    int64      // guarded by mu
	recsSince int        // guarded by mu
	recovered bool       // guarded by mu
	failed    error      // guarded by mu; sticky: set when the log tail is in an unknown state

	// qMu guards the commit queue. It is never held together with mu or
	// barrier: producers enqueue under qMu alone, and the committer drops
	// it before touching the file.
	qMu     sync.Mutex
	qCond   sync.Cond    // signals queue/qClosed changes; shares qMu
	queue   []*commitReq // guarded by qMu
	qClosed bool         // guarded by qMu

	committerDone chan struct{} // closed when the committer goroutine exits
	groupSeq      uint64        // commit group IDs; only the committer touches it

	snapCh chan struct{}

	mAppendProv   *metrics.Counter
	mAppendAcc    *metrics.Counter
	mAppendStress *metrics.Counter
	mAppendRemap  *metrics.Counter
	mAppendRetire *metrics.Counter
	mAppendErrs   *metrics.Counter
	hFsync        *metrics.Histogram
	hBatchSize    *metrics.Histogram
	mGroupSyncs   *metrics.Counter
	mReplayProv   *metrics.Counter
	mReplayAcc    *metrics.Counter
	mReplayStress *metrics.Counter
	mReplayRemap  *metrics.Counter
	mReplayRetire *metrics.Counter
	mSnapshots    *metrics.Counter
	mTornTrunc    *metrics.Counter
	gSnapUnix     *metrics.Gauge
	gRecovered    *metrics.Gauge
}

// commitReq is one Append staged for the committer: its records already
// framed, its ticket waiting for the group's fsync.
type commitReq struct {
	frames  []byte
	nRecs   int
	nProv   uint64
	nAcc    uint64
	nStress uint64
	nRemap  uint64
	nRetire uint64
	tkt     *groupTicket
}

// GroupError is the failure every ticket of one commit group resolves
// with: the same underlying error, tagged with the group ID so consumers
// (the circuit breaker) can count one sick fsync as one failure instead
// of one per passenger.
type GroupError struct {
	Group uint64
	Err   error
}

func (e *GroupError) Error() string {
	return fmt.Sprintf("wal: commit group %d: %v", e.Group, e.Err)
}

func (e *GroupError) Unwrap() error { return e.Err }

// CommitGroup returns the failed group's ID.
func (e *GroupError) CommitGroup() uint64 { return e.Group }

// groupHold is one commit group's shared snapshot-barrier hold. The
// committer arms it with the group size before the durable write; each
// member's Done releases one reference and the last reference out drops
// the group's single barrier.RUnlock.
type groupHold struct {
	s    *DiskStore
	refs atomic.Int64
}

func (h *groupHold) release() {
	if h.refs.Add(-1) == 0 {
		h.s.barrier.RUnlock()
	}
}

// groupTicket implements registry.Ticket for one Append call.
type groupTicket struct {
	hold *groupHold    // the containing group's barrier hold; set by the committer before resolve
	ch   chan struct{} // closed once err is settled
	err  error         // written before close(ch), read only after Wait
	done sync.Once
}

// Wait blocks until the containing commit group fsyncs (nil) or fails.
func (t *groupTicket) Wait() error {
	<-t.ch
	return t.err
}

// Done releases this Append's share of the group's snapshot-barrier
// hold. It must only be called after Wait returned nil (a failed
// group's hold was already released by the committer).
func (t *groupTicket) Done() {
	if t.err != nil {
		return
	}
	t.done.Do(t.hold.release)
}

// resolve settles the ticket; called exactly once, by the committer.
func (t *groupTicket) resolve(err error) {
	t.err = err
	close(t.ch)
}

// immediateTicket is the already-durable ticket returned for an empty
// Append: nothing to commit, nothing to release.
type immediateTicket struct{}

func (immediateTicket) Wait() error { return nil }
func (immediateTicket) Done()       {}

// Open prepares a DiskStore on dir. It creates the directory if needed
// and registers metrics, but performs no reads: call Recover to load the
// snapshot, replay the log, and arm the store for appends.
func Open(cfg Config) (*DiskStore, error) {
	if cfg.Dir == "" {
		return nil, errors.New("wal: empty data directory")
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = fault.OS{}
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating data dir: %w", err)
	}
	now := cfg.NowNanos
	if now == nil {
		now = func() int64 { return 0 }
	}
	m := cfg.Metrics
	if m == nil {
		m = metrics.NewRegistry()
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 64
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 1024
	}
	s := &DiskStore{
		dir:           cfg.Dir,
		fs:            fsys,
		now:           now,
		threshold:     cfg.SnapshotThreshold,
		maxBatch:      maxBatch,
		maxQueue:      maxQueue,
		committerDone: make(chan struct{}),
		snapCh:        make(chan struct{}, 1),

		mAppendProv:   m.Counter("lemonaded_wal_appends_total", `type="provision"`, "durable WAL appends by record type"),
		mAppendAcc:    m.Counter("lemonaded_wal_appends_total", `type="access"`, "durable WAL appends by record type"),
		mAppendStress: m.Counter("lemonaded_wal_appends_total", `type="stress"`, "durable WAL appends by record type"),
		mAppendRemap:  m.Counter("lemonaded_wal_appends_total", `type="remap"`, "durable WAL appends by record type"),
		mAppendRetire: m.Counter("lemonaded_wal_appends_total", `type="retire"`, "durable WAL appends by record type"),
		mAppendErrs:   m.Counter("lemonaded_wal_append_failures_total", "", "WAL appends that failed (each is a failed-closed operation)"),
		hFsync:        m.Histogram("lemonaded_wal_fsync_seconds", "", "fsync latency of WAL commits", nil),
		hBatchSize:    m.Histogram("lemonaded_wal_batch_size", "", "records per group-commit write", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		mGroupSyncs:   m.Counter("lemonaded_wal_group_fsyncs_total", "", "group-commit fsyncs issued (each covers a whole batch)"),
		mReplayProv:   m.Counter("lemonaded_wal_replayed_records_total", `type="provision"`, "records replayed during recovery"),
		mReplayAcc:    m.Counter("lemonaded_wal_replayed_records_total", `type="access"`, "records replayed during recovery"),
		mReplayStress: m.Counter("lemonaded_wal_replayed_records_total", `type="stress"`, "records replayed during recovery"),
		mReplayRemap:  m.Counter("lemonaded_wal_replayed_records_total", `type="remap"`, "records replayed during recovery"),
		mReplayRetire: m.Counter("lemonaded_wal_replayed_records_total", `type="retire"`, "records replayed during recovery"),
		mSnapshots:    m.Counter("lemonaded_wal_snapshots_total", "", "snapshots written"),
		mTornTrunc:    m.Counter("lemonaded_wal_torn_tail_truncations_total", "", "torn WAL tails truncated during recovery"),
		gSnapUnix:     m.Gauge("lemonaded_wal_last_snapshot_unix_seconds", "", "creation time of the newest snapshot (snapshot age = now minus this)"),
		gRecovered:    m.Gauge("lemonaded_wal_recovered_architectures", "", "architectures reconstructed by the last recovery"),
	}
	s.qCond.L = &s.qMu
	go s.committer()
	return s, nil
}

// SnapshotNeeded signals (on a 1-buffered channel) when the records
// appended since the last snapshot cross Config.SnapshotThreshold. The
// daemon selects on it next to its interval ticker.
func (s *DiskStore) SnapshotNeeded() <-chan struct{} { return s.snapCh }

// RecordsSinceSnapshot reports how many records have accumulated in the
// current segment since the last snapshot (or since recovery).
func (s *DiskStore) RecordsSinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recsSince
}

// Append implements registry.Store: it frames recs, enqueues them for
// the committer, and returns a Ticket that resolves when the containing
// commit group has been durably fsynced. Errors the store can detect
// synchronously (bad record shape, unrecovered or poisoned log, closed
// store) are returned here; durability failures arrive through
// Ticket.Wait as a *GroupError.
func (s *DiskStore) Append(recs []registry.Record) (registry.Ticket, error) {
	req := &commitReq{tkt: &groupTicket{ch: make(chan struct{})}}
	for i := range recs {
		r, err := walRecord(&recs[i])
		if err != nil {
			s.mAppendErrs.Inc()
			return nil, err
		}
		payload, err := json.Marshal(r)
		if err != nil {
			s.mAppendErrs.Inc()
			return nil, fmt.Errorf("wal: encoding record: %w", err)
		}
		if req.frames, err = appendFrame(req.frames, payload); err != nil {
			s.mAppendErrs.Inc()
			return nil, err
		}
		req.nRecs++
		switch {
		case r.Provision != nil:
			req.nProv++
		case r.Access != nil:
			req.nAcc++
		case r.Stress != nil:
			req.nStress++
		case r.Remap != nil:
			req.nRemap++
		case r.Retire != nil:
			req.nRetire++
		}
	}
	if req.nRecs == 0 {
		return immediateTicket{}, nil
	}

	// Surface an unusable log synchronously — callers fail closed before
	// queueing work the committer would only bounce.
	s.mu.Lock()
	var err error
	switch {
	case s.failed != nil:
		err = fmt.Errorf("wal: log unusable after earlier failure: %w", s.failed)
	case !s.recovered:
		err = errors.New("wal: append before Recover")
	}
	s.mu.Unlock()
	if err != nil {
		s.mAppendErrs.Inc()
		return nil, err
	}

	s.qMu.Lock()
	for len(s.queue) >= s.maxQueue && !s.qClosed {
		s.qCond.Wait()
	}
	if s.qClosed {
		s.qMu.Unlock()
		s.mAppendErrs.Inc()
		return nil, errors.New("wal: append after Close")
	}
	s.queue = append(s.queue, req)
	s.qCond.Broadcast()
	s.qMu.Unlock()
	return req.tkt, nil
}

// walRecord converts a registry.Record into the WAL's framed form,
// rejecting shapes that would not survive replay: exactly one variant
// must be set.
func walRecord(rec *registry.Record) (record, error) {
	set := 0
	var out record
	if rec.Provision != nil {
		set++
		out = record{Type: "provision", Provision: rec.Provision}
	}
	if rec.Access != nil {
		set++
		out = record{Type: "access", Access: rec.Access}
	}
	if rec.Stress != nil {
		set++
		out = record{Type: "stress", Stress: rec.Stress}
	}
	if rec.Remap != nil {
		set++
		out = record{Type: "remap", Remap: rec.Remap}
	}
	if rec.Retire != nil {
		set++
		out = record{Type: "retire", Retire: rec.Retire}
	}
	switch set {
	case 0:
		return record{}, errors.New("wal: empty record")
	case 1:
		return out, nil
	default:
		return record{}, errors.New("wal: record sets more than one variant")
	}
}

// committer is the single goroutine that turns the queue into durable
// groups: it drains everything pending, folds it into maxBatch-sized
// chunks, and commits each chunk with one write and one fsync.
func (s *DiskStore) committer() {
	defer close(s.committerDone)
	for {
		s.qMu.Lock()
		for len(s.queue) == 0 && !s.qClosed {
			s.qCond.Wait()
		}
		if len(s.queue) == 0 && s.qClosed {
			s.qMu.Unlock()
			return
		}
		pending := s.queue
		s.queue = nil
		s.qCond.Broadcast() // wake producers blocked on maxQueue
		s.qMu.Unlock()

		for len(pending) > 0 {
			n := len(pending)
			if n > s.maxBatch {
				n = s.maxBatch
			}
			s.commitGroup(pending[:n])
			pending = pending[n:]
		}
	}
}

// commitGroup durably writes one batch: one segment write, one fsync,
// then every ticket resolves together. On failure every ticket fails
// closed with the same *GroupError — no caller in the group may treat
// its records as durable, and none of its records took in-memory effect
// (their ticket-holders never got past Wait).
func (s *DiskStore) commitGroup(batch []*commitReq) {
	s.groupSeq++
	group := s.groupSeq

	// One shared barrier hold for the WHOLE group, taken before the
	// durable write and released by the last member's Done (or below, on
	// failure). It must be a single RLock: acquiring one per member in a
	// loop deadlocks against a concurrent Snapshot, because a pending
	// barrier.Lock blocks new RLocks while the holds already taken only
	// release after the commit the committer can no longer reach.
	s.barrier.RLock()
	hold := &groupHold{s: s}
	hold.refs.Store(int64(len(batch)))
	for _, req := range batch {
		req.tkt.hold = hold
	}
	fail := func(err error) {
		s.barrier.RUnlock()
		gerr := &GroupError{Group: group, Err: err}
		for _, req := range batch {
			req.tkt.resolve(gerr)
		}
		s.mAppendErrs.Add(uint64(len(batch)))
	}

	s.mu.Lock()
	var err error
	switch {
	case s.failed != nil:
		err = fmt.Errorf("wal: log unusable after earlier failure: %w", s.failed)
	case !s.recovered:
		err = errors.New("wal: append before Recover")
	}
	if err != nil {
		s.mu.Unlock()
		fail(err)
		return
	}
	frames := batch[0].frames
	totalRecs := batch[0].nRecs
	if len(batch) > 1 {
		size := 0
		for _, req := range batch {
			size += len(req.frames)
		}
		frames = make([]byte, 0, size)
		totalRecs = 0
		for _, req := range batch {
			frames = append(frames, req.frames...)
			totalRecs += req.nRecs
		}
	}
	f := s.cur
	prevOff := s.curOff // last known-synced boundary
	if _, werr := f.Write(frames); werr != nil {
		// The segment tail is now unknown (possibly a partial frame). Try
		// to restore the known-good boundary; if even that fails, poison
		// the store — appending after garbage would turn the next recovery
		// into a corruption refusal.
		if terr := f.Truncate(s.curOff); terr != nil {
			s.failed = fmt.Errorf("write failed (%v), then truncate failed (%v)", werr, terr)
		}
		s.mu.Unlock()
		fail(fmt.Errorf("wal: append: %w", werr))
		return
	}
	s.curOff += int64(len(frames))
	s.recsSince += totalRecs
	over := s.threshold > 0 && s.recsSince >= s.threshold
	s.mu.Unlock()

	// fsync outside mu: the commit pipeline stalls behind the disk, not
	// behind every registry touch.
	start := s.now()
	serr := f.Sync()
	s.hFsync.Observe(float64(s.now()-start) / 1e9)
	if serr != nil {
		// The group's frames reached the file but their durability is
		// unknown. Leaving them (and the advanced offset) in place would
		// let the next successful group land AFTER them, so replay would
		// resurrect a whole batch whose callers all failed closed. Restore
		// the known-synced boundary; if even that repair fails, poison the
		// store — appending after phantom bytes of unknown extent would
		// turn the next recovery into a corruption refusal.
		s.mu.Lock()
		if terr := f.Truncate(prevOff); terr != nil {
			s.failed = fmt.Errorf("fsync failed (%v), then truncate failed (%v)", serr, terr)
		} else {
			s.curOff = prevOff
			s.recsSince -= totalRecs
		}
		s.mu.Unlock()
		fail(fmt.Errorf("wal: fsync: %w", serr))
		return
	}
	s.mGroupSyncs.Inc()
	s.hBatchSize.Observe(float64(totalRecs))
	// Signal before resolving, so an appender that sees its records durable
	// also sees the threshold they crossed.
	if over {
		select {
		case s.snapCh <- struct{}{}:
		default:
		}
	}
	for _, req := range batch {
		s.mAppendProv.Add(req.nProv)
		s.mAppendAcc.Add(req.nAcc)
		s.mAppendStress.Add(req.nStress)
		s.mAppendRemap.Add(req.nRemap)
		s.mAppendRetire.Add(req.nRetire)
		req.tkt.resolve(nil)
	}
}

// Close stops the committer (draining whatever is already queued), then
// syncs and closes the current segment. It does not snapshot — that is
// the daemon's shutdown step, because only the daemon holds the
// registry.
func (s *DiskStore) Close() error {
	s.qMu.Lock()
	if !s.qClosed {
		s.qClosed = true
		s.qCond.Broadcast()
	}
	s.qMu.Unlock()
	if s.committerDone != nil {
		<-s.committerDone
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return nil
	}
	err := s.cur.Sync()
	if cerr := s.cur.Close(); err == nil {
		err = cerr
	}
	s.cur = nil
	return err
}

// --- directory layout -----------------------------------------------------

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

func snapName(epoch uint64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, epoch, snapSuffix) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// scanDir returns the segment sequence numbers and snapshot epochs
// present in dir, each ascending, removing leftover temp files from an
// interrupted snapshot write as it goes.
func (s *DiskStore) scanDir() (segs, snaps []uint64, err error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		if n, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		} else if n, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// syncDir fsyncs the data directory so creates and renames are durable.
func (s *DiskStore) syncDir() error {
	d, err := s.fs.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- recovery -------------------------------------------------------------

// Recover loads the newest snapshot, replays every later segment into
// reg, truncates a torn tail on the final segment, and arms the store
// for appends. It must be called exactly once, before serving traffic.
//
// Failure modes are deliberately asymmetric: a torn tail (crash mid
// append) is repaired silently, because the lost suffix provably never
// took effect — its done-callback never ran, so no response carrying key
// bytes ever left the process. A CRC mismatch anywhere makes Recover
// return a *CorruptionError and leave the store unusable: wear state
// that might under-count consumed accesses must never serve.
func (s *DiskStore) Recover(reg *registry.Registry) (RecoveryStats, error) {
	var stats RecoveryStats
	s.mu.Lock()
	if s.recovered {
		s.mu.Unlock()
		return stats, errors.New("wal: Recover called twice")
	}
	s.mu.Unlock()

	segs, snaps, err := s.scanDir()
	if err != nil {
		return stats, fmt.Errorf("wal: scanning data dir: %w", err)
	}

	// Baseline: the newest snapshot, or empty state when none exists (then
	// the full segment history must be present). A corrupt newest snapshot
	// fails recovery outright — falling back to an older snapshot would
	// serve wear state known to be behind the truth.
	replayFrom := uint64(1)
	if len(snaps) > 0 {
		epoch := snaps[len(snaps)-1]
		hdr, err := s.restoreSnapshot(reg, epoch)
		if err != nil {
			return stats, err
		}
		stats.SnapshotEpoch = epoch
		stats.SnapshotCreatedUnixNanos = hdr.CreatedUnixNanos
		stats.SnapshotArchitectures = hdr.ArchCount
		s.gSnapUnix.Set(hdr.CreatedUnixNanos / int64(1e9))
		replayFrom = epoch
	}

	// The history from the baseline forward must be contiguous; a missing
	// segment means missing wear, which is the one thing that must never
	// be shrugged off.
	var replay []uint64
	for _, seq := range segs {
		if seq >= replayFrom {
			replay = append(replay, seq)
		}
	}
	if len(replay) > 0 && replay[0] != replayFrom {
		return stats, fmt.Errorf("wal: history gap: baseline needs %s but the oldest following segment is %s",
			segName(replayFrom), segName(replay[0]))
	}
	for i := 1; i < len(replay); i++ {
		if replay[i] != replay[i-1]+1 {
			return stats, fmt.Errorf("wal: segment gap between %s and %s",
				segName(replay[i-1]), segName(replay[i]))
		}
	}

	for i, seq := range replay {
		torn, err := s.replaySegment(reg, seq, i == len(replay)-1, &stats)
		if err != nil {
			return stats, err
		}
		stats.Segments++
		stats.TornBytesTruncated += torn
	}

	// Sweep files the baseline made obsolete (a crash between writing a
	// snapshot and deleting what it covers leaves them behind).
	for _, seq := range segs {
		if seq < replayFrom {
			_ = s.fs.Remove(filepath.Join(s.dir, segName(seq)))
		}
	}
	for _, epoch := range snaps {
		if epoch < replayFrom {
			_ = s.fs.Remove(filepath.Join(s.dir, snapName(epoch)))
		}
	}

	// Open the current segment (the highest replayed, or a fresh one) for
	// appends.
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(replay) == 0 {
		f, err := s.fs.OpenFile(filepath.Join(s.dir, segName(replayFrom)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return stats, fmt.Errorf("wal: creating segment: %w", err)
		}
		if err := s.syncDir(); err != nil {
			_ = f.Close()
			return stats, fmt.Errorf("wal: fsyncing data dir: %w", err)
		}
		s.cur, s.curSeq, s.curOff = f, replayFrom, 0
	} else {
		last := replay[len(replay)-1]
		f, err := s.fs.OpenFile(filepath.Join(s.dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return stats, fmt.Errorf("wal: opening current segment: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return stats, err
		}
		s.cur, s.curSeq, s.curOff = f, last, fi.Size()
	}
	s.recsSince = stats.ReplayedRecords()
	s.recovered = true
	s.gRecovered.Set(int64(reg.Len()))
	return stats, nil
}

// rebuildArch deterministically refabricates an architecture from its
// provisioning parameters, choosing the wear-leveled variant when the
// durable record pinned one.
func rebuildArch(design dse.Design, secret []byte, seed uint64, spares int, epoch uint64) (*core.Architecture, error) {
	if spares > 0 || epoch > 0 {
		return core.BuildLeveled(design, secret, core.Leveling{Spares: spares, Epoch: epoch}, rng.New(seed))
	}
	return core.Build(design, secret, rng.New(seed))
}

// replaySegment applies every record of one segment. Only the final
// segment may carry a torn tail; it is truncated in place (and the
// truncation fsynced) so appends resume on a clean frame boundary.
func (s *DiskStore) replaySegment(reg *registry.Registry, seq uint64, isLast bool, stats *RecoveryStats) (int64, error) {
	name := segName(seq)
	path := filepath.Join(s.dir, name)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	rec := 0
	good, torn, err := scanFrames(name, data, func(payload []byte) error {
		err := s.applyRecord(reg, name, rec, payload, stats)
		rec++
		return err
	})
	if err != nil {
		return 0, err
	}
	if torn == 0 {
		return 0, nil
	}
	if !isLast {
		return 0, &CorruptionError{File: name, Record: rec, Offset: good,
			Reason: fmt.Sprintf("sealed segment has a %d-byte torn tail", torn)}
	}
	if err := s.fs.Truncate(path, good); err != nil {
		return 0, fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
	}
	f, err := s.fs.OpenFile(path, os.O_WRONLY, 0o644)
	if err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return 0, fmt.Errorf("wal: fsyncing truncated %s: %w", name, err)
	}
	s.mTornTrunc.Inc()
	return torn, nil
}

// applyRecord applies one WAL record to the registry.
func (s *DiskStore) applyRecord(reg *registry.Registry, file string, idx int, payload []byte, stats *RecoveryStats) error {
	var r record
	if err := json.Unmarshal(payload, &r); err != nil {
		return &CorruptionError{File: file, Record: idx, Offset: -1,
			Reason: "record is not valid JSON: " + err.Error()}
	}
	switch r.Type {
	case "provision":
		if r.Provision == nil {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: "provision record without payload"}
		}
		p := r.Provision
		arch, err := rebuildArch(p.Design, p.Secret, p.Seed, p.Spares, p.RemapEpoch)
		if err != nil {
			return fmt.Errorf("wal: %s record %d: rebuilding %s: %w", file, idx, p.ID, err)
		}
		if _, err := reg.Restore(p.ID, arch, p.Seed, p.Secret); err != nil {
			return fmt.Errorf("wal: %s record %d: %w", file, idx, err)
		}
		s.mReplayProv.Inc()
		stats.ReplayedProvisions++
		return nil
	case "access":
		if r.Access == nil {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: "access record without payload"}
		}
		e, ok := reg.Get(r.Access.ID)
		if !ok {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: fmt.Sprintf("access record for unknown architecture %s", r.Access.ID)}
		}
		// Replay fires the hardware directly — not Entry.Access, which
		// would re-append. The outcome is discarded: it is fully determined
		// by the state, exactly as it was the first time.
		//lemonvet:allow logahead replay applies a record already durable in the log; appending again would double-count
		_, _ = e.Arch.Access(nems.Environment{TempCelsius: r.Access.TempCelsius})
		s.mReplayAcc.Inc()
		stats.ReplayedAccesses++
		return nil
	case "stress":
		if r.Stress == nil {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: "stress record without payload"}
		}
		e, ok := reg.Get(r.Stress.ID)
		if !ok {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: fmt.Sprintf("stress record for unknown architecture %s", r.Stress.ID)}
		}
		// Outcome discarded for the same reason as access replay: the wear
		// the pulses inflict is fully determined by the state.
		//lemonvet:allow logahead replay applies a record already durable in the log; appending again would double-count
		_, _ = e.Arch.Stress(nems.Environment{TempCelsius: r.Stress.TempCelsius}, r.Stress.Indices, r.Stress.Pulses)
		s.mReplayStress.Inc()
		stats.ReplayedStresses++
		return nil
	case "retire":
		if r.Retire == nil {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: "retire record without payload"}
		}
		e, ok := reg.Get(r.Retire.ID)
		if !ok {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: fmt.Sprintf("retire record for unknown architecture %s", r.Retire.ID)}
		}
		// A retire that no longer validates (wrong copy/physical for the
		// rebuilt hardware) is corruption: the live path only logged plans it
		// applied, so a mismatch means the history doesn't fit the state.
		//lemonvet:allow logahead replay applies a record already durable in the log; appending again would double-count
		if err := e.Arch.Retire(r.Retire.Copy, r.Retire.Physical); err != nil {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: fmt.Sprintf("retire record does not apply to %s: %v", r.Retire.ID, err)}
		}
		s.mReplayRetire.Inc()
		stats.ReplayedRetires++
		return nil
	case "remap":
		if r.Remap == nil {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: "remap record without payload"}
		}
		e, ok := reg.Get(r.Remap.ID)
		if !ok {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: fmt.Sprintf("remap record for unknown architecture %s", r.Remap.ID)}
		}
		// The record carries the FULL assignment the live path installed —
		// the remap decision was advisory, the recorded effect replays
		// verbatim, so recovery agrees bit-for-bit even if the planning
		// heuristic changes between versions.
		//lemonvet:allow logahead replay applies a record already durable in the log; appending again would double-count
		if err := e.Arch.ApplyRemap(r.Remap.Copy, r.Remap.Assign); err != nil {
			return &CorruptionError{File: file, Record: idx, Offset: -1,
				Reason: fmt.Sprintf("remap record does not apply to %s: %v", r.Remap.ID, err)}
		}
		s.mReplayRemap.Inc()
		stats.ReplayedRemaps++
		return nil
	default:
		return &CorruptionError{File: file, Record: idx, Offset: -1,
			Reason: fmt.Sprintf("unknown record type %q", r.Type)}
	}
}

// --- snapshots ------------------------------------------------------------

// Snapshot captures the full registry state, rotates to a fresh segment,
// and durably writes a compacted snapshot covering everything before the
// rotation, then deletes the segments and snapshots it obsoleted.
//
// The crash ordering is what makes this safe: the new segment is created
// and the capture taken under the exclusive barrier (no append can be
// between its durable write and its in-memory effect); the snapshot file
// appears atomically via temp-file + rename; obsolete files are deleted
// only after the new snapshot and its rename are fsynced. A crash
// between any two steps recovers from either the old snapshot (plus all
// segments) or the new one.
func (s *DiskStore) Snapshot(reg *registry.Registry) error {
	s.barrier.Lock()
	s.mu.Lock()
	if !s.recovered || s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		s.barrier.Unlock()
		if err != nil {
			return fmt.Errorf("wal: snapshot on failed store: %w", err)
		}
		return errors.New("wal: snapshot before Recover")
	}

	newSeq := s.curSeq + 1
	f, err := s.fs.OpenFile(filepath.Join(s.dir, segName(newSeq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.mu.Unlock()
		s.barrier.Unlock()
		return fmt.Errorf("wal: creating segment: %w", err)
	}

	// Capture under the exclusive barrier: every done-callback has run, so
	// each architecture's state agrees exactly with its log prefix.
	hdr := snapshotHeader{Format: snapshotFormat, Epoch: newSeq, CreatedUnixNanos: s.now()}
	var archs []snapshotArch
	reg.Range(func(e *registry.Entry) bool {
		archs = append(archs, captureArch(e))
		return true
	})
	sort.Slice(archs, func(i, j int) bool { return snapLess(archs[i].ID, archs[j].ID) })

	old := s.cur
	oldSeq := s.curSeq
	s.cur, s.curSeq, s.curOff, s.recsSince = f, newSeq, 0, 0
	s.mu.Unlock()
	s.barrier.Unlock()

	// Durable writes happen outside the barrier — appends may proceed into
	// the new segment while the snapshot is written, because the
	// snapshot's contents are already fixed.
	err = old.Sync()
	if cerr := old.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sealing %s: %w", segName(oldSeq), err)
	}
	// A snapshot that cannot be encoded (a frame over the cap) is refused
	// before any file appears; the rotated segments stay authoritative.
	data, err := encodeSnapshot(hdr, archs)
	if err != nil {
		return err
	}
	if err := s.writeSnapshotFile(hdr.Epoch, data); err != nil {
		return err
	}
	s.mSnapshots.Inc()
	s.gSnapUnix.Set(hdr.CreatedUnixNanos / int64(1e9))

	// Compact: everything before newSeq is covered by the new snapshot.
	segs, snaps, err := s.scanDir()
	if err != nil {
		return fmt.Errorf("wal: compacting: %w", err)
	}
	for _, seq := range segs {
		if seq < newSeq {
			_ = s.fs.Remove(filepath.Join(s.dir, segName(seq)))
		}
	}
	for _, epoch := range snaps {
		if epoch < newSeq {
			_ = s.fs.Remove(filepath.Join(s.dir, snapName(epoch)))
		}
	}
	return nil
}

// snapLess orders snapshot entries by numeric ID suffix so snapshot
// bytes are deterministic for a deterministic provisioning history.
func snapLess(a, b string) bool {
	na, aok := parseSeq(a, "arch-", "")
	nb, bok := parseSeq(b, "arch-", "")
	if aok && bok {
		return na < nb
	}
	return a < b
}

// writeSnapshotFile durably publishes an encoded snapshot via temp file
// + atomic rename.
func (s *DiskStore) writeSnapshotFile(epoch uint64, data []byte) error {
	final := filepath.Join(s.dir, snapName(epoch))
	tmp := final + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot temp file: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("wal: fsyncing data dir: %w", err)
	}
	return nil
}
