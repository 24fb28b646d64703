// Command lemonade is the parametric CLI front end of the library: design-space
// exploration (§4–5), the one-time-pad equations (Eqs 9–15) and M-way plans.
//
// Subcommands:
//
//	dse      — explore the design space for a device model and usage target
//	sim      — Monte-Carlo a design's empirical access bounds
//	otp      — analyze a one-time-pad parameter point (Eqs 9–15)
//	attack   — run the brute-force race against a design
//	fit      — characterize a simulated lot, then design from the fitted model
//	plan     — M-way replication plan for a deployment (§4.1.5)
//	chipplan — size a one-time-pad chip
//
// `lemonade <subcommand> -h` lists a subcommand's flags. The randomized
// subcommands (sim, attack, fit) take -seed for reproducibility.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lemonade/internal/attack"
	"lemonade/internal/connection"
	"lemonade/internal/dse"
	"lemonade/internal/montecarlo"
	"lemonade/internal/nems"
	"lemonade/internal/otp"
	"lemonade/internal/password"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/structure"
	"lemonade/internal/weibull"
)

// A subcommand defines its flags on fs and returns the action that runs
// once they are parsed. usage prints example and the golden test runs it.
type subcommand struct {
	name, example string
	flags         func(fs *flag.FlagSet) func(w io.Writer) error
}

var subcommands = []subcommand{
	{"dse", "-alpha 14 -beta 8 -lab 91250 -kfrac 0.1", dseFlags},
	{"sim", "-alpha 12 -beta 8 -lab 100 -kfrac 0.1", simFlags},
	{"otp", "-alpha 10 -beta 1 -height 8 -copies 128 -k 8", otpFlags},
	{"attack", "-alpha 12 -beta 8 -lab 200 -kfrac 0.1", attackFlags},
	{"fit", "-alpha 14 -beta 8 -samples 3000", fitFlags},
	{"plan", "-alpha 14 -beta 8 -daily 500", planFlags},
	{"chipplan", "-messages 100 -size 256", chipPlanFlags},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line and returns its exit status: 0 on
// success or help, 1 when the subcommand fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	}
	for _, c := range subcommands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		action := c.flags(fs)
		if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
			return 0
		} else if err != nil {
			return 2
		}
		if err := action(stdout); err != nil {
			fmt.Fprintln(stderr, "lemonade:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "lemonade: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: lemonade <subcommand> [flags]; lemonade <subcommand> -h lists its flags")
	for _, c := range subcommands {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.example)
	}
}

// specFlags defines the design-spec flags on fs. The function it returns
// builds the spec from the parsed flags and explores it.
func specFlags(fs *flag.FlagSet) func() (dse.Spec, dse.Design, error) {
	alpha := fs.Float64("alpha", 14, "Weibull scale (mean lifetime, cycles)")
	beta := fs.Float64("beta", 8, "Weibull shape (consistency)")
	lab := fs.Int("lab", 91250, "legitimate access bound")
	upper := fs.Int("upper", 0, "upper-bound target (0 = wear out right after LAB)")
	kfrac := fs.Float64("kfrac", 0.1, "encoding threshold fraction (0 = no encoding)")
	minWork := fs.Float64("minwork", 0.99, "per-copy reliability requirement")
	overrun := fs.Float64("overrun", 0.01, "per-copy max overrun probability")
	return func() (dse.Spec, dse.Design, error) {
		d, err := weibull.New(*alpha, *beta)
		if err != nil {
			return dse.Spec{}, dse.Design{}, err
		}
		spec := dse.Spec{
			Dist:        d,
			Criteria:    reliability.Criteria{MinWork: *minWork, MaxOverrun: *overrun},
			LAB:         *lab,
			UpperBound:  *upper,
			KFrac:       *kfrac,
			ContinuousT: true,
		}
		design, err := dse.Explore(spec)
		return spec, design, err
	}
}

func dseFlags(fs *flag.FlagSet) func(io.Writer) error {
	explore := specFlags(fs)
	keyBits := fs.Int("keybits", 256, "protected secret size for area accounting")
	return func(w io.Writer) error {
		_, d, err := explore()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, d)
		fmt.Fprintf(w, "  per-copy target T        = %d accesses (%.2f continuous)\n", d.T, d.TReal)
		fmt.Fprintf(w, "  per-copy upper bound     = %d accesses\n", d.UpperT)
		fmt.Fprintf(w, "  copies                   = %d\n", d.Copies)
		fmt.Fprintf(w, "  devices per structure    = %d (k = %d)\n", d.N, d.K)
		fmt.Fprintf(w, "  total devices            = %d\n", d.TotalDevices)
		fmt.Fprintf(w, "  guaranteed min accesses  = %d\n", d.GuaranteedMinAccesses())
		fmt.Fprintf(w, "  max allowed accesses     = %d\n", d.MaxAllowedAccesses())
		fmt.Fprintf(w, "  per-copy work prob       = %.6f\n", d.WorkProb)
		fmt.Fprintf(w, "  per-copy overrun prob    = %.2e\n", d.OverrunProb)
		fmt.Fprintf(w, "  area                     = %.4g mm²\n", d.Area(*keyBits).Mm2())
		fmt.Fprintf(w, "  energy per access        = %.3g J\n", float64(d.EnergyPerAccess()))
		fmt.Fprintf(w, "  switching latency        = %.0f ns\n", d.LatencyPerAccess().Ns())
		return nil
	}
}

func simFlags(fs *flag.FlagSet) func(io.Writer) error {
	explore := specFlags(fs)
	trials := fs.Int("trials", 200, "Monte-Carlo trials")
	seed := fs.Uint64("seed", 1, "RNG seed")
	return func(w io.Writer) error {
		spec, d, err := explore()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, d)
		sum, err := montecarlo.RunParallel(context.Background(), *seed, *trials, func(r *rng.RNG) float64 {
			copies := make([]structure.Structure, d.Copies)
			for i := range copies {
				p, err := structure.NewParallel(spec.Dist, d.N, d.K, r)
				if err != nil {
					panic(err)
				}
				copies[i] = p
			}
			sys := structure.NewSerialCopies(copies)
			return float64(structure.CountSuccessfulAccesses(sys, nems.RoomTemp, d.MaxAllowedAccesses()*3))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  empirical total accesses: %v\n", sum)
		fmt.Fprintf(w, "  min observed / LAB      : %g / %d\n", sum.Min, spec.LAB)
		fmt.Fprintf(w, "  max observed / allowed  : %g / %d\n", sum.Max, d.MaxAllowedAccesses())
		fmt.Fprintf(w, "  quantiles p01/p50/p99   : %.0f / %.0f / %.0f\n",
			sum.Quantile(0.01), sum.Median(), sum.Quantile(0.99))
		return nil
	}
}

func otpFlags(fs *flag.FlagSet) func(io.Writer) error {
	alpha := fs.Float64("alpha", 10, "Weibull scale")
	beta := fs.Float64("beta", 1, "Weibull shape")
	height := fs.Int("height", 8, "decision-tree height H")
	copies := fs.Int("copies", 128, "tree copies n")
	k := fs.Int("k", 8, "Shamir threshold")
	chip := fs.Float64("chip", 1, "chip area in mm² for density")
	return func(w io.Writer) error {
		d, err := weibull.New(*alpha, *beta)
		if err != nil {
			return err
		}
		p := otp.Params{Dist: d, Height: *height, Copies: *copies, K: *k}
		if err := p.Validate(); err != nil {
			return err
		}
		fmt.Fprintf(w, "one-time pad %s H=%d n=%d k=%d\n", d, p.Height, p.Copies, p.K)
		fmt.Fprintf(w, "  candidate keys per tree  = %d\n", p.Paths())
		fmt.Fprintf(w, "  key size                 = %d bits\n", p.KeyBits())
		fmt.Fprintf(w, "  path success (Eq 9/12)   = %.6f\n", p.PathSuccessProb())
		fmt.Fprintf(w, "  receiver success (Eq 10) = %.6f\n", p.ReceiverSuccess())
		fmt.Fprintf(w, "  adversary success (Eq15) = %.3e\n", p.AdversarySuccess())
		fmt.Fprintf(w, "  retrieval latency        = %.5f ms\n", p.RetrievalLatency().Ms())
		fmt.Fprintf(w, "  retrieval energy         = %.3g J\n", float64(p.RetrievalEnergy()))
		fmt.Fprintf(w, "  pads per %.3g mm² chip    = %d\n", *chip, p.PadsPerChip(*chip))
		return nil
	}
}

func attackFlags(fs *flag.FlagSet) func(io.Writer) error {
	explore := specFlags(fs)
	trials := fs.Int("trials", 20, "race trials")
	seed := fs.Uint64("seed", 1, "RNG seed")
	return func(w io.Writer) error {
		_, d, err := explore()
		if err != nil {
			return err
		}
		curve := password.UrEtAl()
		fmt.Fprintln(w, d)
		fmt.Fprintf(w, "  analytic crack probability at the hardware bound: %.3e\n",
			attack.BruteForceAnalytic(d, curve))
		cracked := 0
		base := rng.New(*seed)
		for i := 0; i < *trials; i++ {
			out, err := attack.BruteForce(context.Background(), d, curve, base.Derive(fmt.Sprintf("race-%d", i)))
			if err != nil {
				return err
			}
			state := "locked out"
			if out.Cracked {
				state = "CRACKED"
				cracked++
			}
			fmt.Fprintf(w, "  race %2d: %s after %d attempts (user rank %d)\n", i, state, out.Attempts, out.UserRank)
		}
		fmt.Fprintf(w, "  cracked %d/%d races\n", cracked, *trials)
		return nil
	}
}

func fitFlags(fs *flag.FlagSet) func(io.Writer) error {
	alpha := fs.Float64("alpha", 14, "true Weibull scale of the simulated lot")
	beta := fs.Float64("beta", 8, "true Weibull shape of the simulated lot")
	cvAlpha := fs.Float64("cvalpha", 0, "per-device alpha variation (coefficient of variation)")
	cvBeta := fs.Float64("cvbeta", 0, "per-device beta variation")
	samples := fs.Int("samples", 3000, "devices to cycle to failure")
	cutoff := fs.Uint64("cutoff", 100, "censoring cutoff in cycles")
	lab := fs.Int("lab", 91250, "usage target for the follow-on design")
	kfrac := fs.Float64("kfrac", 0.1, "encoding threshold fraction")
	seed := fs.Uint64("seed", 1, "RNG seed")
	return func(w io.Writer) error {
		truth, err := weibull.New(*alpha, *beta)
		if err != nil {
			return err
		}
		lot := nems.NewPopulation(truth, *cvAlpha, *cvBeta, rng.New(*seed))
		fmt.Fprintf(w, "characterizing a lot of %s (%d samples, cutoff %d cycles)\n", truth, *samples, *cutoff)
		obs := lot.MeasureLifetimes(*samples, *cutoff)
		censored := 0
		for _, o := range obs {
			if o.Censored {
				censored++
			}
		}
		fitted, err := weibull.Fit(obs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  observed failures  : %d (%d censored at cutoff)\n", *samples-censored, censored)
		fmt.Fprintf(w, "  fitted model       : %s\n", fitted)
		fmt.Fprintf(w, "  fitted mean / true : %.2f / %.2f cycles\n", fitted.Mean(), truth.Mean())
		d, err := dse.Explore(dse.Spec{
			Dist:        fitted,
			Criteria:    reliability.DefaultCriteria,
			LAB:         *lab,
			KFrac:       *kfrac,
			ContinuousT: true,
		})
		if err != nil {
			return fmt.Errorf("design from fitted model: %w", err)
		}
		fmt.Fprintf(w, "  design from fit    : %v\n", d)
		return nil
	}
}

func planFlags(fs *flag.FlagSet) func(io.Writer) error {
	explore := specFlags(fs)
	daily := fs.Int("daily", 500, "required unlocks per day")
	years := fs.Float64("years", 5, "deployment lifetime in years")
	return func(w io.Writer) error {
		_, design, err := explore()
		if err != nil {
			return err
		}
		plan, err := connection.PlanMWay(design, *daily, time.Duration(*years*365*24)*time.Hour)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, plan)
		fmt.Fprintf(w, "  per-module design : %v\n", design)
		fmt.Fprintf(w, "  lifetime accesses : %d\n", plan.TotalAccesses)
		fmt.Fprintf(w, "  user burden       : new passcode + storage re-encryption every %.1f months\n",
			plan.MigrateEvery.Hours()/24/30)
		return nil
	}
}

func chipPlanFlags(fs *flag.FlagSet) func(io.Writer) error {
	alpha := fs.Float64("alpha", 10, "Weibull scale")
	beta := fs.Float64("beta", 1, "Weibull shape")
	messages := fs.Int("messages", 100, "messages the chip must support")
	size := fs.Int("size", 256, "max message size in bytes")
	copies := fs.Int("copies", 128, "tree copies per pad")
	k := fs.Int("k", 8, "Shamir threshold")
	return func(w io.Writer) error {
		d, err := weibull.New(*alpha, *beta)
		if err != nil {
			return err
		}
		plan, err := otp.PlanChip(d, *messages, *size, *copies, *k)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, plan)
		fmt.Fprintf(w, "  tree height          = %d (%d candidate keys per pad)\n",
			plan.Params.Height, plan.Params.Paths())
		fmt.Fprintf(w, "  per-message capacity = %d bytes\n", plan.MaxMessageBytes)
		fmt.Fprintf(w, "  chip area            = %.4g mm²\n", plan.AreaMm2)
		fmt.Fprintf(w, "  retrieval latency    = %.4f ms\n", plan.Params.RetrievalLatency().Ms())
		fmt.Fprintf(w, "  receiver success     = %.6f\n", plan.ReceiverSuccess)
		fmt.Fprintf(w, "  adversary success    = %.3e\n", plan.AdversarySucces)
		return nil
	}
}
