package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lemonade/api"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// specOf is the dse.Spec the server solves for a wire spec: the daemon
// fills the default criteria when the request leaves them out.
func specOf(q api.SpecRequest) dse.Spec {
	return dse.Spec{
		Dist:        weibull.Dist{Alpha: q.Alpha, Beta: q.Beta},
		Criteria:    reliability.DefaultCriteria,
		LAB:         q.LAB,
		KFrac:       q.KFrac,
		ContinuousT: q.ContinuousT,
	}
}

// budgetCeiling is the most successful accesses one architecture may
// serve: the designed maximum plus the repository's 2·Copies slack for
// per-copy overrun (each copy's death past UpperT is a bounded-probability
// event, not an exact cliff).
func budgetCeiling(d dse.Design) int { return d.MaxAllowedAccesses() + 2*d.Copies }

// tally counts one architecture's acknowledged outcomes.
type tally struct {
	success, transient, exhausted int
	stressAcks                    int // stress bursts answered 200 or 410
}

func (t tally) attempts() int { return t.success + t.transient + t.exhausted }

// tallies sums the samples per fleet index.
func tallies(samples []sample, fleet int) []tally {
	out := make([]tally, fleet)
	for _, s := range samples {
		t := &out[s.arch]
		switch {
		case s.kind == OpStress && s.out != outFailed:
			t.stressAcks++
		case s.kind == OpStress:
		case s.out == outSuccess:
			t.success++
		case s.out == outTransient:
			t.transient++
		case s.out == outExhausted:
			t.exhausted++
		}
	}
	return out
}

// replayJob is one architecture to replay serially through core.
type replayJob struct {
	name   string
	design dse.Design
	secret []byte
	seed   uint64
	want   tally
}

// replayGate rebuilds each architecture from its seed and replays its
// acknowledged access count serially through core: the success,
// transient and exhausted counts must equal what the stack answered, and
// the successes must stay inside the designed budget. Replays run on
// procs goroutines.
func replayGate(ctx context.Context, p *pass, jobs []replayJob, procs int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan replayJob)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				if msg := replayOne(j); msg != "" {
					mu.Lock()
					p.gatef("%s", msg)
					mu.Unlock()
				}
			}
		}()
	}
feed:
	for _, j := range jobs {
		select {
		case next <- j:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		p.gatef("replay gate cut short: %v", err)
	}
}

// replayOne replays one job and describes any mismatch ("" when none).
func replayOne(j replayJob) string {
	arch, err := core.Build(j.design, j.secret, rng.New(j.seed))
	if err != nil {
		return fmt.Sprintf("%s: replay build: %v", j.name, err)
	}
	var got tally
	for i := 0; i < j.want.attempts(); i++ {
		_, err := arch.Access(nems.RoomTemp)
		switch {
		case err == nil:
			got.success++
		case errors.Is(err, core.ErrExhausted):
			got.exhausted++
		case errors.Is(err, core.ErrTransient):
			got.transient++
		default:
			return fmt.Sprintf("%s: replay access %d: %v", j.name, i+1, err)
		}
	}
	if got != j.want {
		return fmt.Sprintf("%s: stack answered %d ok / %d transient / %d exhausted, serial core replay gives %d / %d / %d",
			j.name, j.want.success, j.want.transient, j.want.exhausted, got.success, got.transient, got.exhausted)
	}
	if limit := budgetCeiling(j.design); got.success > limit {
		return fmt.Sprintf("%s: %d successes exceed the designed budget %d", j.name, got.success, limit)
	}
	return ""
}

// rebuildRegistry restarts an in-memory fleet: every architecture is
// refabricated from its provisioning triple and its wear state overlaid,
// as a snapshot restore does.
func rebuildRegistry(reg *registry.Registry) (*registry.Registry, error) {
	out := registry.New(0)
	var err error
	reg.Range(func(e *registry.Entry) bool {
		var arch *core.Architecture
		if lv, ok := e.Arch.Leveling(); ok {
			arch, err = core.BuildLeveled(e.Arch.Design(), e.Secret, lv, rng.New(e.Seed))
		} else {
			arch, err = core.Build(e.Arch.Design(), e.Secret, rng.New(e.Seed))
		}
		if err == nil {
			err = arch.Restore(e.Arch.State())
		}
		if err == nil {
			_, err = out.Restore(e.ID, arch, e.Seed, e.Secret)
		}
		if err != nil {
			err = fmt.Errorf("rebuilding %s: %w", e.ID, err)
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sameCounts checks that every architecture of got carries the access
// counts of its twin in want.
func sameCounts(want, got *registry.Registry) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("%d architectures recovered, %d provisioned", got.Len(), want.Len())
	}
	var err error
	want.Range(func(e *registry.Entry) bool {
		g, ok := got.Get(e.ID)
		if !ok {
			err = fmt.Errorf("%s missing after recovery", e.ID)
			return false
		}
		wt, wo := e.Arch.Accesses()
		gt, gok := g.Arch.Accesses()
		if wt != gt || wo != gok {
			err = fmt.Errorf("%s: %d/%d attempts/successes live, %d/%d recovered", e.ID, wt, wo, gt, gok)
			return false
		}
		return true
	})
	return err
}
