package attack

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"lemonade/api"
)

// live.go aims the paper's §3 adversaries at a RUNNING daemon instead of
// a bare simulated device: every attack below speaks the public HTTP API
// through api.Client, so it exercises the full serving stack — the
// log-ahead durability path, the resilience envelope, and the
// wear-leveling defense — exactly as a network-position attacker would.
//
// Two live attack modes:
//
//   - StressPattern: a wearout accelerator. The attacker cannot read the
//     secret (the /stress route never reconstructs), but can concentrate
//     actuations on chosen share indices under hostile environments —
//     heat-gun hot phases and cold-soak phases cycled per burst — to
//     burn the budget far faster than legitimate use would.
//   - Campaign: availability depletion at scale (§7). N deterministic
//     attackers race M legitimate users on one architecture; the report
//     captures the degradation window (first transient → lockout) and
//     the confidentiality invariants: the attacker sees zero key bytes,
//     and total reveals never exceed the designed budget.

// StressPlan shapes one attacker's burst sequence. The zero value is not
// runnable: Bursts and Indices are required.
type StressPlan struct {
	Indices []int // share indices to concentrate wear on
	// HotTemp/ColdTemp are the cycled environments; zero means room
	// temperature for that phase (a pure hot attack sets only HotTemp).
	HotTemp  float64
	ColdTemp float64
	// Period is the phase length in bursts: bursts [0,Period) run hot,
	// [Period,2·Period) cold, and so on. Period 0 runs every burst hot.
	Period int
	Pulses int // actuations per index per burst (0 = 1)
	Bursts int // bursts to send
}

// Temperature returns the environment override for burst i — the
// deterministic hot/cold cycle, so a replayed attack sends the identical
// request sequence.
func (p StressPlan) Temperature(i int) float64 {
	if p.Period <= 0 {
		return p.HotTemp
	}
	if (i/p.Period)%2 == 0 {
		return p.HotTemp
	}
	return p.ColdTemp
}

// StressReport summarizes one StressPattern run.
type StressReport struct {
	Bursts     int    // bursts the daemon accepted
	PulsesSent int    // total pulses across accepted bursts
	Conducted  int    // actuations that found a still-working switch
	Stressed   uint64 // daemon's lifetime stress count afterwards
	Remaps     uint64 // wear-leveling rotations the defense performed
	Transients int    // 503 refusals absorbed (no wear consumed)
	// LockedOutAt is the burst index at which the daemon answered 410 —
	// the architecture died under the attack — or -1 if it survived.
	LockedOutAt int
}

// maxStressTransients bounds how many consecutive 503s a stress attacker
// absorbs before concluding the daemon is wedged rather than busy.
const maxStressTransients = 1000

// StressPattern runs one attacker's full burst sequence against the
// architecture. It stops early at lockout (the attack killed the device)
// or when ctx ends; other API failures abort with the error.
func StressPattern(ctx context.Context, c *api.Client, id string, plan StressPlan) (StressReport, error) {
	rep := StressReport{LockedOutAt: -1}
	if plan.Bursts <= 0 {
		return rep, errors.New("attack: stress plan needs at least one burst")
	}
	pulses := plan.Pulses
	if pulses <= 0 {
		pulses = 1
	}
	streak := 0
	for i := 0; i < plan.Bursts; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		resp, err := c.Stress(ctx, id, api.StressRequest{
			TempCelsius: plan.Temperature(i),
			Indices:     plan.Indices,
			Pulses:      pulses,
		})
		switch {
		case err == nil:
			streak = 0
			rep.Bursts++
			rep.PulsesSent += resp.Pulses
			rep.Conducted += resp.Conducted
			rep.Stressed = resp.Stressed
			rep.Remaps = resp.Remaps
		case api.IsExhausted(err):
			rep.LockedOutAt = i
			return rep, nil
		case api.IsTransient(err):
			rep.Transients++
			streak++
			if streak >= maxStressTransients {
				return rep, fmt.Errorf("attack: %d consecutive transients, daemon wedged: %w", streak, err)
			}
			i-- // the burst was refused before any wear; resend it
		default:
			return rep, err
		}
	}
	return rep, nil
}

// CampaignConfig parameterizes a depletion campaign: Attackers stress
// workers each running Plan, racing Users legitimate access workers.
type CampaignConfig struct {
	Attackers int        // concurrent stress attackers (default 1)
	Users     int        // concurrent legitimate users (default 1)
	Plan      StressPlan // per-attacker burst sequence
	// MaxUserOps bounds each user's access attempts, a safety valve for
	// configurations that never reach lockout (default 10000).
	MaxUserOps int
	// SecretHex, when set, is the provisioned secret: successful user
	// accesses are checked against it, and every attacker-visible
	// response is scanned for it.
	SecretHex string
}

// CampaignReport is the outcome of one depletion campaign. Operation
// indices are the daemon's own access attempt numbers, read back from
// the architecture's event ring once the campaign ends, so
// FirstTransientOp and LockoutOp sit on the order in which the server
// applied the accesses — not the order in which clients issued them,
// which a slow request can invert.
type CampaignReport struct {
	AttackerBursts  int    // stress bursts the daemon accepted
	AttackerPulses  int    // total stress pulses landed
	AttackerRemaps  uint64 // defense rotations observed by the attackers
	AttackerReveals int    // attacker-visible responses carrying key bytes — MUST be 0
	UserSuccesses   int    // legitimate reveals (bounded by the design budget)
	UserTransients  int    // 503s users absorbed
	UserDecodeFails int    // 422s users absorbed (conducted but unreconstructable)
	WrongSecrets    int    // successful accesses returning wrong bytes — MUST be 0

	// FirstTransientOp is the attempt number of the first access the
	// daemon answered with a degradation signal (503 or 422); LockoutOp
	// the first access it answered 410; -1 if never.
	FirstTransientOp int64
	LockoutOp        int64
}

// DegradationWindow is the number of accesses between the first
// user-visible transient and lockout — how much warning the legitimate
// owner gets that an attack is burning their budget. -1 when the
// campaign never exhibited both endpoints.
func (r CampaignReport) DegradationWindow() int64 {
	if r.FirstTransientOp < 0 || r.LockoutOp < 0 {
		return -1
	}
	return r.LockoutOp - r.FirstTransientOp
}

// Campaign races cfg.Attackers stress workers against cfg.Users
// legitimate access workers on one architecture until every worker
// finishes (lockout, plan complete, or op budget spent). The attackers
// start together at a barrier, and the users start once every attacker's
// first burst has been answered: from then on both sides really race,
// but the attack has landed before the users can spend the device, so
// a campaign never ends with the attacker having done nothing. The first
// error other than the expected refusals aborts the campaign.
func Campaign(ctx context.Context, c *api.Client, id string, cfg CampaignConfig) (CampaignReport, error) {
	attackers := max(cfg.Attackers, 1)
	users := max(cfg.Users, 1)
	maxUserOps := cfg.MaxUserOps
	if maxUserOps <= 0 {
		maxUserOps = 10000
	}
	// The campaign's accesses are the attempts after this one.
	st, err := c.Status(ctx, id)
	if err != nil {
		return CampaignReport{FirstTransientOp: -1, LockoutOp: -1}, err
	}

	var (
		bursts       atomic.Int64
		pulses       atomic.Int64
		remaps       atomic.Uint64
		reveals      atomic.Int64
		successes    atomic.Int64
		transients   atomic.Int64
		decodeFails  atomic.Int64
		wrongSecrets atomic.Int64
	)
	// leaked reports whether an attacker-visible payload carries the
	// provisioned key bytes — the confidentiality invariant, checked
	// against the JSON the attacker actually received.
	leaked := func(v any) bool {
		if cfg.SecretHex == "" {
			return false
		}
		b, err := json.Marshal(v)
		return err == nil && strings.Contains(strings.ToLower(string(b)), strings.ToLower(cfg.SecretHex))
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	// landed counts down as each attacker's first burst is answered (or
	// the attacker gives up first); users wait for it to reach zero.
	var landed sync.WaitGroup
	landed.Add(attackers)
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		if err == nil || errors.Is(err, context.Canceled) {
			return
		}
		e := err
		firstErr.CompareAndSwap(nil, &e)
	}

	pulsesPerBurst := cfg.Plan.Pulses
	if pulsesPerBurst <= 0 {
		pulsesPerBurst = 1
	}
	for a := 0; a < attackers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			land := sync.OnceFunc(landed.Done)
			defer land()
			<-start
			streak := 0
			for i := 0; i < cfg.Plan.Bursts; i++ {
				if ctx.Err() != nil {
					return
				}
				resp, err := c.Stress(ctx, id, api.StressRequest{
					TempCelsius: cfg.Plan.Temperature(i),
					Indices:     cfg.Plan.Indices,
					Pulses:      pulsesPerBurst,
				})
				switch {
				case err == nil:
					streak = 0
					bursts.Add(1)
					pulses.Add(int64(resp.Pulses))
					remaps.Store(resp.Remaps)
					if leaked(resp) {
						reveals.Add(1)
					}
					land()
				case api.IsExhausted(err):
					return
				case api.IsTransient(err):
					streak++
					if streak >= maxStressTransients {
						fail(fmt.Errorf("attack: attacker wedged on transients: %w", err))
						return
					}
					i--
				default:
					fail(err)
					return
				}
			}
		}()
	}
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			landed.Wait()
			for n := 0; n < maxUserOps; n++ {
				if ctx.Err() != nil {
					return
				}
				resp, err := c.Access(ctx, id, api.AccessRequest{})
				switch {
				case err == nil:
					successes.Add(1)
					if cfg.SecretHex != "" && resp.SecretHex != cfg.SecretHex {
						wrongSecrets.Add(1)
					}
				case api.IsExhausted(err):
					return
				case api.IsTransient(err):
					transients.Add(1)
				case isDecodeFailed(err):
					decodeFails.Add(1)
				default:
					fail(err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	rep := CampaignReport{
		AttackerBursts:   int(bursts.Load()),
		AttackerPulses:   int(pulses.Load()),
		AttackerRemaps:   remaps.Load(),
		AttackerReveals:  int(reveals.Load()),
		UserSuccesses:    int(successes.Load()),
		UserTransients:   int(transients.Load()),
		UserDecodeFails:  int(decodeFails.Load()),
		WrongSecrets:     int(wrongSecrets.Load()),
		FirstTransientOp: -1,
		LockoutOp:        -1,
	}
	if p := firstErr.Load(); p != nil {
		return rep, *p
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, timeline(ctx, c, id, st.Attempts, &rep)
}

// timeline fills the report's FirstTransientOp and LockoutOp from the
// architecture's event ring: the attempt numbers the daemon stamped as it
// applied each access after attempt since. It refuses to guess when the
// ring has already dropped some of the campaign's accesses.
func timeline(ctx context.Context, c *api.Client, id string, since uint64, rep *CampaignReport) error {
	evs, err := c.Events(ctx, id, 0)
	if err != nil {
		return err
	}
	if len(evs.Events) > 0 && evs.Events[0].Attempt > since+1 {
		return fmt.Errorf("attack: event ring starts at attempt %d, campaign at %d: timeline incomplete",
			evs.Events[0].Attempt, since+1)
	}
	for _, ev := range evs.Events {
		if ev.Attempt <= since {
			continue
		}
		switch ev.Outcome {
		case "transient", "decode_failed":
			if rep.FirstTransientOp < 0 {
				rep.FirstTransientOp = int64(ev.Attempt)
			}
		case "exhausted":
			if rep.LockoutOp < 0 {
				rep.LockoutOp = int64(ev.Attempt)
			}
		}
	}
	return nil
}

// isDecodeFailed reports a 422: the access conducted (wear consumed) but
// reconstruction failed — a degradation signal short of lockout.
func isDecodeFailed(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.StatusCode == 422
}
