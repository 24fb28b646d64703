package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// CompareOpts tunes the regression gate. The zero value applies the
// defaults documented on each field.
type CompareOpts struct {
	// RelThreshold is the minimum relative median shift considered a
	// regression (default 0.10 = 10%).
	RelThreshold float64
	// SigmaFactor scales the pooled standard deviation in the noise term
	// (default 3).
	SigmaFactor float64
	// MinDeltaNanos is an absolute floor under which a median shift is
	// never a regression, guarding metrics whose medians sit near the
	// clock's resolution (default 20µs).
	MinDeltaNanos float64
	// AllocSlack is the absolute allocs/op increase tolerated on top of
	// RelThreshold (default 16; allocation counts carry GC jitter from
	// background goroutines).
	AllocSlack float64
	// AllocCeilings maps metric names to absolute allocs/op ceilings —
	// the ratchet: unlike the relative gate, a ceiling binds against the
	// *new* report alone, so a regression cannot hide behind an old
	// report that had already regressed. Metrics absent from the map are
	// gated only relatively. nil applies no ceilings.
	AllocCeilings map[string]float64
}

// DefaultAllocCeilings are the ratcheted allocs/op ceilings for the
// zero-alloc codec and simulation paths: each is the measured floor of
// the pooled implementation (seed 42, N=10) with ~2× headroom for GC and
// runtime jitter, far below the pre-pooling counts (shamir 622,
// montecarlo 4111 allocs/op). Lower a ceiling when a path gets cheaper;
// raising one is a performance regression and needs the same scrutiny as
// a failing gate.
var DefaultAllocCeilings = map[string]float64{
	"codec/shamir_split_combine": 32,   // measured floor 14
	"codec/shamir_wide_combine":  8,    // measured floor 3
	"montecarlo/run_parallel":    48,   // measured floor 12
	"explore/parallel":           64,   // measured floor 22
	"core/build":                 1280, // measured floor 640 (676 with a scratch list per copy, 2220 with an allocation per share, 2663 with a slab per copy, 57091 with a heap object per switch)
}

func (o CompareOpts) withDefaults() CompareOpts {
	if o.RelThreshold <= 0 {
		o.RelThreshold = 0.10
	}
	if o.SigmaFactor <= 0 {
		o.SigmaFactor = 3
	}
	if o.MinDeltaNanos <= 0 {
		o.MinDeltaNanos = 20_000
	}
	if o.AllocSlack <= 0 {
		o.AllocSlack = 16
	}
	return o
}

// Regression is one gate failure: the metric, the field that moved, and
// a human-readable account of by how much.
type Regression struct {
	Metric string `json:"metric"`
	Field  string `json:"field"`
	Detail string `json:"detail"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s: %s", r.Metric, r.Field, r.Detail)
}

// Compare gates a new report against an old one. A metric regresses
// when its median slows by more than
//
//	max(RelThreshold × old median, SigmaFactor × pooled σ, MinDeltaNanos)
//
// — the noise-aware threshold: a shift must be both relatively large
// and outside what the two runs' own spread explains. Improvements
// never fail. Beyond timing: a metric present in old but missing from
// new regresses (coverage loss), allocs/op
// regresses past its own threshold, and — when both runs used the same
// seed — a checksum mismatch regresses unconditionally, because it
// means the workload computed different bytes, which is a determinism
// bug, not noise.
func Compare(old, cur *Report, opts CompareOpts) ([]Regression, error) {
	if old.SchemaVersion != cur.SchemaVersion {
		return nil, fmt.Errorf("bench: schema version mismatch: old %d vs new %d",
			old.SchemaVersion, cur.SchemaVersion)
	}
	opts = opts.withDefaults()
	newByName := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		newByName[r.Name] = r
	}
	var regs []Regression
	for _, o := range old.Results {
		n, ok := newByName[o.Name]
		if !ok {
			regs = append(regs, Regression{Metric: o.Name, Field: "coverage",
				Detail: "metric present in old report but missing from new"})
			continue
		}
		if old.Seed == cur.Seed && o.Checksum != "" && n.Checksum != "" && o.Checksum != n.Checksum {
			regs = append(regs, Regression{Metric: o.Name, Field: "checksum",
				Detail: fmt.Sprintf("workload output changed at equal seeds (%s → %s): determinism regression",
					o.Checksum, n.Checksum)})
		}
		delta := n.MedianNanos - o.MedianNanos
		pooled := math.Sqrt((o.StddevNanos*o.StddevNanos + n.StddevNanos*n.StddevNanos) / 2)
		threshold := math.Max(opts.RelThreshold*o.MedianNanos,
			math.Max(opts.SigmaFactor*pooled, opts.MinDeltaNanos))
		if delta > threshold {
			regs = append(regs, Regression{Metric: o.Name, Field: "median_ns",
				Detail: fmt.Sprintf("%.0f ns → %.0f ns (+%.1f%%), beyond max(%.0f%% rel, %g×σ=%.0f ns, %.0f ns floor)",
					o.MedianNanos, n.MedianNanos, 100*delta/math.Max(o.MedianNanos, 1),
					100*opts.RelThreshold, opts.SigmaFactor, opts.SigmaFactor*pooled, opts.MinDeltaNanos)})
		}
		if n.AllocsPerOp > o.AllocsPerOp*(1+opts.RelThreshold)+opts.AllocSlack {
			regs = append(regs, Regression{Metric: o.Name, Field: "allocs_per_op",
				Detail: fmt.Sprintf("%.1f → %.1f allocs/op, beyond %.0f%% + %.0f slack",
					o.AllocsPerOp, n.AllocsPerOp, 100*opts.RelThreshold, opts.AllocSlack)})
		}
	}
	// Ratchet ceilings bind on the new report alone: every measured
	// metric with a configured ceiling must stay under it, whether or not
	// the old report covered it.
	for _, n := range cur.Results {
		if ceil, ok := opts.AllocCeilings[n.Name]; ok && n.AllocsPerOp > ceil {
			regs = append(regs, Regression{Metric: n.Name, Field: "allocs_ceiling",
				Detail: fmt.Sprintf("%.1f allocs/op exceeds the ratcheted ceiling of %.0f",
					n.AllocsPerOp, ceil)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Metric != regs[j].Metric {
			return regs[i].Metric < regs[j].Metric
		}
		return regs[i].Field < regs[j].Field
	})
	return regs, nil
}

// Encode writes the report as stable indented JSON to w.
func (r *Report) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	return nil
}

// WriteFile marshals the report (stable indented JSON) to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	if err := r.Encode(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: writing report: %w", err)
	}
	return nil
}

// ReadFile loads a report written by WriteFile, rejecting unknown
// schema versions.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading report: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema version %d, this binary speaks %d",
			path, rep.SchemaVersion, SchemaVersion)
	}
	return &rep, nil
}
