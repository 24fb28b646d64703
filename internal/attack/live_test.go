package attack

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"lemonade/api"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/server"
	"lemonade/internal/weibull"
)

// liveDaemon boots the real serving stack on an httptest listener and
// returns a typed client for it — the live attacks run the same HTTP
// path an external adversary would.
func liveDaemon(t *testing.T) *api.Client {
	t.Helper()
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := api.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// liveSpec matches the server tests' golden spec: a small, fast design.
var liveSpec = api.SpecRequest{Alpha: 6, Beta: 8, LAB: 30, KFrac: 0.1, ContinuousT: true}

const liveSecretHex = "00112233445566778899aabbccddeeff"

func provisionLive(t *testing.T, c *api.Client, seed uint64, spares int, epoch uint64) *api.ProvisionResponse {
	t.Helper()
	pr, err := c.Provision(context.Background(), api.ProvisionRequest{
		Spec: liveSpec, SecretHex: liveSecretHex, Seed: seed,
		Spares: spares, RemapEpoch: epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// liveDesign is the design the daemon explores for liveSpec.
func liveDesign(t *testing.T) dse.Design {
	t.Helper()
	design, err := dse.Explore(dse.Spec{
		Dist:        weibull.Dist{Alpha: liveSpec.Alpha, Beta: liveSpec.Beta},
		Criteria:    reliability.DefaultCriteria,
		LAB:         liveSpec.LAB,
		KFrac:       liveSpec.KFrac,
		ContinuousT: liveSpec.ContinuousT,
	})
	if err != nil {
		t.Fatal(err)
	}
	return design
}

// hardwareCeiling is the most reveals the leveled architecture that
// provisionLive fabricates from (seed, spares, epoch) can ever serve,
// whatever the interleaving of accesses and stress. A reveal needs k
// conducting actuations inside one copy, and a switch conducts at most
// its hidden room-temperature lifetime: environments only accelerate
// wear, and the remap planner retires only dead switches. So copy c
// serves at most ⌊C_c/k⌋ reveals, where C_c is the conducting-cycle
// capacity of its n+spares switches. C_c is measured on a serial rebuild
// of the same seed: stress every slot at room temperature, applying each
// pending remap, until the copy's whole pool is dead; then one access
// steps to the next copy (its conducting actuations count too).
func hardwareCeiling(t *testing.T, seed uint64, spares int, epoch uint64) int {
	t.Helper()
	design := liveDesign(t)
	secret, err := hex.DecodeString(liveSecretHex)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := core.BuildLeveled(design, secret,
		core.Leveling{Spares: spares, Epoch: epoch}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	capacity := make([]int, design.Copies)
	arch.SetObserver(func(ev core.AccessEvent) {
		if ev.Copy < len(capacity) {
			capacity[ev.Copy] += ev.Conducting
		}
	})
	slots := make([]int, design.N)
	for i := range slots {
		slots[i] = i
	}
	for {
		cur := arch.CurrentCopy()
		n, err := arch.Stress(nems.RoomTemp, slots, 1)
		if errors.Is(err, core.ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		capacity[cur] += n
		if plan, ok := arch.PendingRemap(); ok {
			for _, p := range plan.Retire {
				if err := arch.Retire(plan.Copy, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := arch.ApplyRemap(plan.Copy, plan.Assign); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if n == 0 {
			// Nothing conducts and no rotation is due: the whole pool is
			// dead, so one access steps on to the next copy.
			if _, err := arch.Access(nems.RoomTemp); errors.Is(err, core.ErrExhausted) {
				break
			}
		}
	}
	ceiling := 0
	for _, c := range capacity {
		ceiling += c / design.K
	}
	return ceiling
}

// drainAccesses performs legitimate accesses until lockout and returns
// the number of successful reveals.
func drainAccesses(t *testing.T, c *api.Client, id string) int {
	t.Helper()
	reveals := 0
	for i := 0; i < 10000; i++ {
		resp, err := c.Access(context.Background(), id, api.AccessRequest{})
		switch {
		case err == nil:
			if resp.SecretHex != liveSecretHex {
				t.Fatalf("access revealed wrong bytes: %q", resp.SecretHex)
			}
			reveals++
		case api.IsExhausted(err):
			return reveals
		case api.IsTransient(err), isDecodeFailed(err):
			// degradation; keep going
		default:
			t.Fatal(err)
		}
	}
	t.Fatal("architecture never locked out")
	return reveals
}

// TestStressPlanTemperatureCycle pins the deterministic hot/cold
// schedule: a replayed attack sends bit-identical requests.
func TestStressPlanTemperatureCycle(t *testing.T) {
	p := StressPlan{HotTemp: 400, ColdTemp: -40, Period: 3}
	want := []float64{400, 400, 400, -40, -40, -40, 400}
	for i, w := range want {
		if got := p.Temperature(i); got != w {
			t.Errorf("Temperature(%d) = %g, want %g", i, got, w)
		}
	}
	// Period 0: every burst hot.
	always := StressPlan{HotTemp: 400, ColdTemp: -40}
	for i := 0; i < 5; i++ {
		if got := always.Temperature(i); got != 400 {
			t.Errorf("period-0 Temperature(%d) = %g, want 400", i, got)
		}
	}
}

// TestStressPatternAcceleratesWearout is the attack working as designed:
// a hot-phase stress accelerator aimed at the whole active copy burns
// budget the legitimate owner never gets back. Two identically-seeded
// architectures — one attacked, one left alone — must reveal the secret
// a strictly different number of times, attacked strictly fewer.
func TestStressPatternAcceleratesWearout(t *testing.T) {
	c := liveDaemon(t)
	victim := provisionLive(t, c, 42, 0, 0)
	control := provisionLive(t, c, 42, 0, 0)

	n := victim.Design.N
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	// 400 °C runs the wear clock 10×: a short burst sequence kills the
	// active copy's switches outright.
	plan := StressPlan{Indices: indices, HotTemp: 400, Pulses: 5, Bursts: 4}
	rep, err := StressPattern(context.Background(), c, victim.ID, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bursts != plan.Bursts {
		t.Errorf("accepted %d bursts, want %d", rep.Bursts, plan.Bursts)
	}
	if rep.PulsesSent != plan.Bursts*plan.Pulses {
		t.Errorf("pulses sent = %d, want %d", rep.PulsesSent, plan.Bursts*plan.Pulses)
	}
	// Stress never reconstructs and never advances the copy, so the
	// attack alone cannot observe a lockout.
	if rep.LockedOutAt != -1 {
		t.Errorf("stress-only run reported lockout at burst %d", rep.LockedOutAt)
	}
	if rep.Stressed != uint64(rep.PulsesSent) {
		t.Errorf("daemon counted %d stress pulses, attacker sent %d", rep.Stressed, rep.PulsesSent)
	}

	attacked := drainAccesses(t, c, victim.ID)
	baseline := drainAccesses(t, c, control.ID)
	if attacked >= baseline {
		t.Errorf("attacked architecture revealed %d times, unattacked twin %d — the accelerator did nothing",
			attacked, baseline)
	}
	// Confidentiality: fewer reveals, never more — the attack costs the
	// owner availability, not the designer's overrun bound.
	if attacked > victim.Design.MaxAllowedAccesses {
		t.Errorf("attacked reveals %d exceed the designed max %d", attacked, victim.Design.MaxAllowedAccesses)
	}
}

// TestStressPatternDefenseRotates: against the leveled variant the same
// targeted attack triggers wear-leveling rotations, visible in the
// attacker's own responses — the defense does not hide, it outlasts.
func TestStressPatternDefenseRotates(t *testing.T) {
	c := liveDaemon(t)
	pr := provisionLive(t, c, 42, 4, 3)
	plan := StressPlan{Indices: []int{0, 1}, HotTemp: 400, ColdTemp: -40, Period: 2, Pulses: 2, Bursts: 8}
	rep, err := StressPattern(context.Background(), c, pr.ID, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Remaps == 0 {
		t.Error("targeted stress against the leveled variant never rotated the remap table")
	}
	st, err := c.Status(context.Background(), pr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.WearLeveling == nil {
		t.Fatal("leveled architecture reports no wear_leveling block")
	}
	if st.WearLeveling.Remaps != rep.Remaps {
		t.Errorf("status reports %d remaps, attacker observed %d", st.WearLeveling.Remaps, rep.Remaps)
	}
}

// TestCampaignDepletionInvariants is the at-scale depletion campaign
// (§7) against the wear-leveled daemon: concurrent deterministic
// attackers race legitimate users. Whatever the interleaving, the
// security invariants must hold — the attacker reads zero key bytes,
// reveals never exceed the designed budget, and the degradation window
// (first transient → lockout) is observable on the global op timeline.
func TestCampaignDepletionInvariants(t *testing.T) {
	c := liveDaemon(t)
	pr := provisionLive(t, c, 42, 4, 8)

	cfg := CampaignConfig{
		Attackers: 3,
		Users:     3,
		Plan: StressPlan{
			Indices: []int{0, 1, 2},
			HotTemp: 400, ColdTemp: -40, Period: 4,
			Pulses: 2, Bursts: 120,
		},
		SecretHex: liveSecretHex,
	}
	rep, err := Campaign(context.Background(), c, pr.ID, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Confidentiality intact: no attacker-visible payload carried key
	// bytes, and every legitimate reveal carried the right ones.
	if rep.AttackerReveals != 0 {
		t.Errorf("attacker saw key bytes %d times, want 0", rep.AttackerReveals)
	}
	if rep.WrongSecrets != 0 {
		t.Errorf("%d reveals returned wrong bytes", rep.WrongSecrets)
	}
	// Reveals bounded by the seeded hardware itself: no interleaving can
	// draw more reveals than the switches' conducting cycles allow.
	if d := liveDesign(t); d.N != pr.Design.N || d.K != pr.Design.K || d.Copies != pr.Design.Copies {
		t.Fatalf("rebuilt design %d-of-%d x%d, daemon provisioned %d-of-%d x%d",
			d.K, d.N, d.Copies, pr.Design.K, pr.Design.N, pr.Design.Copies)
	}
	if budget := hardwareCeiling(t, pr.Seed, pr.Spares, pr.RemapEpoch); rep.UserSuccesses > budget {
		t.Errorf("reveals %d exceed leveled budget %d", rep.UserSuccesses, budget)
	}
	// Availability destroyed: the campaign drove the device to lockout.
	if rep.LockoutOp < 0 {
		t.Errorf("campaign never reached lockout: %+v", rep)
	}
	// The owner got a measurable warning: a transient preceded lockout.
	if rep.FirstTransientOp < 0 {
		t.Errorf("no degradation signal before lockout: %+v", rep)
	}
	if w := rep.DegradationWindow(); w < 0 {
		t.Errorf("degradation window = %d, want >= 0 (%+v)", w, rep)
	}
	// The defense engaged while under fire.
	if rep.AttackerRemaps == 0 {
		t.Error("wear-leveling never rotated during the campaign")
	}
	// Post-lockout, the answer stays 410 forever.
	if _, err := c.Access(context.Background(), pr.ID, api.AccessRequest{}); !api.IsExhausted(err) {
		t.Errorf("post-campaign access = %v, want exhausted", err)
	}
}

var updateCeiling = flag.Bool("update", false, "rewrite scripts/testdata/attack-ceiling")

// TestChaosAttackCeiling pins the hardware ceiling of the exact provision
// `scripts/chaos.sh attack` makes (liveSpec, liveSecretHex, seed 42,
// 4 spares, remap epoch 8) in the file that script gates its reveal
// count on.
func TestChaosAttackCeiling(t *testing.T) {
	got := fmt.Sprintf("%d\n", hardwareCeiling(t, 42, 4, 8))
	path := filepath.Join("..", "..", "scripts", "testdata", "attack-ceiling")
	if *updateCeiling {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing ceiling file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("chaos.sh attack ceiling = %q, %s holds %q", got, path, want)
	}
}

// TestCampaignAgainstPlainArchitecture: the campaign also runs against
// unleveled hardware (the attack predates the defense) — same
// confidentiality invariants, no rotations.
func TestCampaignAgainstPlainArchitecture(t *testing.T) {
	c := liveDaemon(t)
	pr := provisionLive(t, c, 7, 0, 0)
	rep, err := Campaign(context.Background(), c, pr.ID, CampaignConfig{
		Attackers: 2,
		Users:     2,
		Plan:      StressPlan{Indices: []int{0}, HotTemp: 400, Pulses: 2, Bursts: 80},
		SecretHex: liveSecretHex,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AttackerReveals != 0 || rep.WrongSecrets != 0 {
		t.Errorf("confidentiality violated: %+v", rep)
	}
	if rep.AttackerRemaps != 0 {
		t.Errorf("unleveled architecture reported %d remaps", rep.AttackerRemaps)
	}
	if rep.LockoutOp < 0 {
		t.Errorf("depletion never locked the device: %+v", rep)
	}
	if rep.UserSuccesses > pr.Design.MaxAllowedAccesses+2 {
		t.Errorf("reveals %d exceed designed max %d", rep.UserSuccesses, pr.Design.MaxAllowedAccesses)
	}
}
