// Package core is the paper's primary contribution as a usable library: a
// limited-use security architecture that physically stores a secret behind
// wearout hardware.
//
// An Architecture is built from a dse.Design (which fixes the number of
// copies, the parallel-structure size n, and the survivor threshold k) plus
// the secret to protect. At fabrication the secret is encoded — replicated
// for k = 1, Shamir (k, n) threshold-shared for k > 1 (§4.1.4) — and each
// component is one-time-programmed into a store reachable only through its
// own simulated NEMS switch. Every access actuates the active copy's
// switches, collects the components whose switches conducted, and decodes
// the secret iff at least k components were recovered. Once every copy has
// worn out the secret is physically unreachable forever.
//
// The Shamir encoding is what makes partial wearout safe: an adversary who
// recovers k−1 components (because only k−1 switches still conduct) learns
// nothing about the secret.
package core

import (
	"errors"
	"fmt"
	"sync"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
)

// Typed sentinels. Callers classify access failures with errors.Is; the
// lemonaded server maps them onto HTTP status codes (ErrExhausted → 410,
// ErrDecodeFailed → 422).
var (
	// ErrExhausted is returned once every copy of the architecture has
	// degraded below its survivor threshold: the secret is gone forever.
	ErrExhausted = errors.New("core: architecture exhausted; secret unrecoverable")
	// ErrTransient is returned when an access failed but a later access
	// may still succeed (the active copy died mid-access and the next
	// copy takes over on retry).
	ErrTransient = errors.New("core: access failed; retry")
	// ErrDecodeFailed is returned when enough switches conducted but the
	// collected components did not reconstruct the secret — corrupted
	// share state rather than wearout. The failing copy is retired and a
	// retry proceeds on the next copy, like a transient failure.
	ErrDecodeFailed = errors.New("core: component decode failed")
)

// AccessOutcome classifies an access attempt for observers.
type AccessOutcome int

// Access outcomes.
const (
	AccessSuccess      AccessOutcome = iota // secret recovered
	AccessTransient                         // active copy died mid-access; retry
	AccessExhausted                         // architecture exhausted
	AccessDecodeFailed                      // enough switches conducted but decode failed
)

// String renders the outcome as the stable wire label used by the events
// API and the metrics exposition.
func (o AccessOutcome) String() string {
	switch o {
	case AccessSuccess:
		return "success"
	case AccessTransient:
		return "transient"
	case AccessExhausted:
		return "exhausted"
	case AccessDecodeFailed:
		return "decode_failed"
	default:
		return "unknown"
	}
}

// AccessEvent describes one completed access attempt, for telemetry.
type AccessEvent struct {
	Attempt    uint64 // 1-based attempt number
	Copy       int    // copy that served (or refused) the access
	Conducting int    // switches that conducted during the access
	Outcome    AccessOutcome
}

// Architecture is a fabricated limited-use secret store.
//
// An Architecture is safe for concurrent use: accesses from multiple
// goroutines are serialized on an internal mutex, mirroring the hardware —
// a physical parallel structure fires once per access, so two concurrent
// requests are two accesses, each consuming wearout. Total successful
// accesses can therefore never exceed the hardware's wearout budget no
// matter how many callers race.
type Architecture struct {
	design dse.Design

	mu       sync.Mutex // guards everything below
	copies   []*archCopy
	picked   []int // scratch: the first k slots that conducted in an access (capacity k)
	cur      int
	total    uint64 // accesses attempted
	ok       uint64 // accesses that yielded the secret
	observer func(AccessEvent)
	// r is the fabrication RNG, retained after Build so State/Restore can
	// checkpoint the exact stream position: any future draw (noise models,
	// re-keying) then replays bit-identically after recovery.
	r *rng.RNG

	// Wear-leveling state; leveling is nil for the unleveled variant.
	leveling *Leveling
	stressed uint64 // stress pulses served (targeted attack traffic)
	opsSince uint64 // wear-consuming ops since the last remap rotation
	remaps   uint64 // rotations applied over the architecture's lifetime
}

// SetObserver installs a callback invoked synchronously after every access
// attempt — the hook a deployment uses for usage telemetry and
// tamper/exhaustion alerting. A nil observer disables it. The callback
// runs with the architecture's lock held and must not call back into the
// architecture.
func (a *Architecture) SetObserver(fn func(AccessEvent)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observer = fn
}

// decoder reconstructs the secret from the first k switch indices that
// conducted during an access, in slot order. Implementations: plain
// replication (k=1), Shamir over GF(256) (k>1, n ≤ 255) and Shamir over
// GF(2^16) (wide structures).
type decoder interface {
	combine(picked []int) ([]byte, error)
}

// replicaDecoder: every switch guards a full copy of the secret.
type replicaDecoder struct{ secret []byte }

func (d replicaDecoder) combine(picked []int) ([]byte, error) {
	out := make([]byte, len(d.secret))
	copy(out, d.secret)
	return out, nil
}

// shamirDecoder: Shamir shares over GF(2^8) or GF(2^16), switch i guards
// share i. The share-selection scratch is reused across accesses;
// decoders are only invoked with the architecture lock held, so reuse
// cannot race.
type shamirDecoder[E shamir.Elem] struct {
	scheme *shamir.Scheme[E]
	shares []shamir.ShareOf[E]
	k      int
	got    []shamir.ShareOf[E] // scratch, reused under the architecture lock
}

func newShamirDecoder[E shamir.Elem](s *shamir.Scheme[E], secret []byte, k, n int, r *rng.RNG) (decoder, error) {
	shares, err := s.Split(secret, k, n, r)
	if err != nil {
		return nil, fmt.Errorf("core: encoding secret: %w", err)
	}
	return &shamirDecoder[E]{scheme: s, shares: shares, k: k, got: make([]shamir.ShareOf[E], 0, k)}, nil
}

func (d *shamirDecoder[E]) combine(picked []int) ([]byte, error) {
	got := d.got[:0]
	for _, i := range picked {
		got = append(got, d.shares[i])
	}
	d.got = got
	// Combine's output is the one allocation an access must make: the
	// secret is handed to the caller, so it cannot come from a reused
	// buffer.
	return d.scheme.Combine(got, d.k)
}

// archCopy is one serially-used copy: n logical slots, each guarding one
// component share. Its switches are its window of the architecture's
// pointer-free switch slab. Unleveled, slot i IS switches[i]. Leveled,
// switches holds the whole physical pool (primaries + spares) and bank
// routes each logical slot onto its currently assigned physical switch,
// indexing the same window.
type archCopy struct {
	switches []nems.Switch
	bank     *nems.Bank // nil = unleveled: slot i fires switches[i]
	dec      decoder
	k        int
}

// slots returns the copy's logical width (the share count n).
func (c *archCopy) slots() int {
	if c.bank != nil {
		return c.bank.Slots()
	}
	return len(c.switches)
}

// actuate fires logical slot i, through the remap table if present,
// adding accel (the environment's nems.Environment.Acceleration, which
// callers compute once per access or stress call) to its wear.
func (c *archCopy) actuate(i int, accel float64) error {
	if c.bank != nil {
		return c.bank.Actuate(i, accel)
	}
	return c.switches[i].ActuateBy(accel)
}

// alive reports whether the copy could still serve an access. Unleveled
// that means at least k switches still conduct. Leveled it is the bank's
// service potential — at least k usable physicals — because a rotation can
// move spares under dead slots before the next access, so the copy is not
// dead merely because the current mapping is.
func (c *archCopy) alive() bool {
	if c.bank != nil {
		return c.bank.Usable() >= c.k
	}
	working := 0
	for i := range c.switches {
		if c.switches[i].Working() {
			working++
			if working >= c.k {
				return true
			}
		}
	}
	return false
}

// access actuates every logical slot (physically the whole parallel
// structure fires on each access) and returns the recovered secret (nil on
// failure) plus how many switches conducted. It records the first k slots
// that conducted in picked, the architecture's k-capacity scratch, which
// is all a decoder reads. A non-nil error distinguishes a decode failure
// (enough switches conducted, reconstruction failed) from plain wearout
// below threshold.
func (c *archCopy) access(accel float64, picked []int) ([]byte, int, error) {
	picked, conducting := picked[:0], 0
	for i, n := 0, c.slots(); i < n; i++ {
		if c.actuate(i, accel) == nil {
			if conducting < c.k {
				picked = append(picked, i)
			}
			conducting++
		}
	}
	if conducting < c.k {
		return nil, conducting, nil
	}
	secret, err := c.dec.combine(picked)
	if err != nil {
		return nil, conducting, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	return secret, conducting, nil
}

// Build fabricates an architecture for the design, protecting secret.
// Encoded designs use Shamir over GF(256) for structures up to 255
// devices and over GF(2^16) beyond that, supporting the paper's widest
// (low-β) structures up to 65,535 devices per copy.
func Build(design dse.Design, secret []byte, r *rng.RNG) (*Architecture, error) {
	return build(design, secret, nil, r)
}

// build is the shared fabrication path. A non-nil lv fabricates lv.Spares
// extra physical switches per copy and mounts a wear-leveling bank over
// the pool; nil fabricates the plain unleveled structure, bit-identical to
// every build before leveling existed.
func build(design dse.Design, secret []byte, lv *Leveling, r *rng.RNG) (*Architecture, error) {
	if len(secret) == 0 {
		return nil, errors.New("core: empty secret")
	}
	if design.N < 1 || design.K < 1 || design.Copies < 1 {
		return nil, fmt.Errorf("core: degenerate design %v", design)
	}
	if design.K > 1 && design.N > shamir.Wide.MaxShares() {
		return nil, fmt.Errorf("core: encoded structure size n=%d exceeds the GF(2^16) share space (%d)",
			design.N, shamir.Wide.MaxShares())
	}
	// One (k, n) sharing serves every copy: copy c's switch i guards share
	// i. Reuse is safe — each copy exposes the same share set, so the
	// adversary's best case is still k−1 distinct shares — and it keeps
	// the share storage proportional to one structure (the paper's §4.3.2
	// area accounting).
	var dec decoder
	var err error
	switch {
	case design.K == 1:
		dup := make([]byte, len(secret))
		copy(dup, secret)
		dec = replicaDecoder{secret: dup}
	case design.N <= shamir.Narrow.MaxShares():
		dec, err = newShamirDecoder(shamir.Narrow, secret, design.K, design.N, r)
	default:
		dec, err = newShamirDecoder(shamir.Wide, secret, design.K, design.N, r)
	}
	if err != nil {
		return nil, err
	}
	a := &Architecture{design: design, copies: make([]*archCopy, design.Copies), picked: make([]int, 0, design.K), r: r, leveling: lv}
	phys := design.N
	if lv != nil {
		phys += lv.Spares
	}
	// One slab holds every copy's switches, fabricated copy after copy in
	// a single pass: the draw order the fabrication goldens pin. Each copy
	// holds a full-capacity window of it, so it can never grow into its
	// neighbour.
	slab := make([]nems.Switch, phys*design.Copies)
	nems.FabricateInto(slab, design.Spec.Dist, r)
	copies := make([]archCopy, design.Copies)
	for ci := range a.copies {
		c := &copies[ci]
		*c = archCopy{switches: slab[ci*phys : (ci+1)*phys : (ci+1)*phys], dec: dec, k: design.K}
		if lv != nil {
			b, err := nems.NewBank(c.switches, design.N)
			if err != nil {
				return nil, fmt.Errorf("core: building bank: %w", err)
			}
			c.bank = b
		}
		a.copies[ci] = c
	}
	return a, nil
}

// Access performs one access under env. On success it returns the secret.
// ErrTransient means this access failed but the architecture may recover on
// retry (the next copy takes over); ErrExhausted means the secret is gone.
// An access runs to completion once called — a physical access cannot be
// un-fired — so cancellation belongs to the caller, before the call.
// Safe for concurrent use.
func (a *Architecture) Access(env nems.Environment) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total++
	if a.leveling != nil {
		a.opsSince++
	}
	for a.cur < len(a.copies) {
		c := a.copies[a.cur]
		if !c.alive() {
			a.cur++
			continue
		}
		secret, conducting, decErr := c.access(env.Acceleration(), a.picked)
		if secret == nil {
			// The active copy could not serve this access: it degraded
			// below threshold mid-access or its share state failed to
			// decode. Unleveled wearout is monotone, so the next copy
			// takes over on retry; a leveled copy with spare potential
			// stays active — the next rotation moves spares under the
			// dead slots. Decode failure retires the copy either way:
			// the shares themselves are corrupt, and remapping switches
			// cannot repair share state.
			outcome := AccessTransient
			err := error(ErrTransient)
			if decErr != nil {
				outcome = AccessDecodeFailed
				err = decErr
			}
			a.emit(AccessEvent{Attempt: a.total, Copy: a.cur, Conducting: conducting, Outcome: outcome})
			if decErr != nil || !c.alive() {
				a.cur++
			}
			return nil, err
		}
		a.ok++
		a.emit(AccessEvent{Attempt: a.total, Copy: a.cur, Conducting: conducting, Outcome: AccessSuccess})
		return secret, nil
	}
	a.emit(AccessEvent{Attempt: a.total, Copy: len(a.copies), Outcome: AccessExhausted})
	return nil, ErrExhausted
}

func (a *Architecture) emit(ev AccessEvent) {
	if a.observer != nil {
		a.observer(ev)
	}
}

// Alive reports whether a future access could still succeed.
func (a *Architecture) Alive() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := a.cur; i < len(a.copies); i++ {
		if a.copies[i].alive() {
			return true
		}
	}
	return false
}

// Design returns the design the architecture was built from.
func (a *Architecture) Design() dse.Design { return a.design }

// Accesses returns (attempted, successful) access counts.
func (a *Architecture) Accesses() (total, successful uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total, a.ok
}

// CurrentCopy returns the index of the copy serving accesses.
func (a *Architecture) CurrentCopy() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// TotalDevices returns the switch count of the fabricated hardware,
// including any wear-leveling spares.
func (a *Architecture) TotalDevices() int {
	n := a.design.N
	if a.leveling != nil {
		n += a.leveling.Spares
	}
	return n * a.design.Copies
}

// ExhaustedCopies returns how many copies have fully degraded.
func (a *Architecture) ExhaustedCopies() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}
