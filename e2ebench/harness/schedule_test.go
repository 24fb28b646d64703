package harness

import "testing"

func TestScheduleDigestFollowsSeed(t *testing.T) {
	gens := map[string]func(seed uint64) *Schedule{
		WorkloadDurable: func(seed uint64) *Schedule { return DurableSchedule(seed, 200, 0.5) },
		WorkloadWide:    func(seed uint64) *Schedule { return WideSchedule(seed, 2) },
		WorkloadCluster: ClusterSchedule,
	}
	for name, gen := range gens {
		a, b, c := gen(7).Digest(), gen(7).Digest(), gen(8).Digest()
		if a != b {
			t.Errorf("%s: equal seeds gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share digest %s", name, a)
		}
	}
}

func TestDurableScheduleShape(t *testing.T) {
	s := DurableSchedule(3, 1000, 2)
	if n := len(s.Ops); n < 1800 || n > 2200 {
		t.Fatalf("%d ops over 2 s at 1000/s", n)
	}
	stress := 0
	for i, op := range s.Ops {
		if i > 0 && op.DueNs < s.Ops[i-1].DueNs {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		if op.Kind == OpStress {
			stress++
			if !s.Fleet[op.Arch].Leveled || len(op.Indices) != stressIndices {
				t.Fatalf("stress op %d targets %d (leveled %v) with %d indices", i, op.Arch, s.Fleet[op.Arch].Leveled, len(op.Indices))
			}
		}
	}
	if frac := float64(stress) / float64(len(s.Ops)); frac < 0.07 || frac > 0.13 {
		t.Errorf("stress fraction %.3f, want about %g", frac, stressFraction)
	}
}
