package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"lemonade/api"
	"lemonade/internal/rng"
)

// The device points every workload provisions. paperSpec is the paper's
// design point (α=14, β=8, LAB 1000, kfrac 0.1 → n=140, k=14 over
// GF(2⁸)); wideSpec widens the structure to n=1131, k=114 over GF(2¹⁶),
// where the NEMS traversal and the Shamir combine dominate an access.
var (
	paperSpec = api.SpecRequest{Alpha: 14, Beta: 8, LAB: 1000, KFrac: 0.1, ContinuousT: true}
	wideSpec  = api.SpecRequest{Alpha: 40, Beta: 8, LAB: 1000, KFrac: 0.1, ContinuousT: true}
)

// durable-fleet parameters, frozen with the benchmark: a later change that
// moves one of them is a new benchmark, not a faster program.
const (
	durableRate       = 1000 // offered Poisson arrivals per second
	durableP99LimitMs = 50   // latency limit on access_p99_ms at durableRate
	durableLateMs     = 25   // gen.late_p99_ms above this invalidates a run
	durableFleet      = 48   // paper-point architectures
	durableZipfS      = 1.1  // skew of the access draw over the fleet
	leveledEvery      = 4    // every 4th architecture is wear-leveled...
	leveledSpares     = 4    // ...with this many spare switches per copy
	stressFraction    = 0.1  // share of ops that are stress bursts
	stressTempC       = 400  // stress bursts run hot
	stressIndices     = 4    // share indices per burst
	stressPulses      = 2    // pulses per index
)

// wide-memory parameters: each of the nproc callers drives its own lane
// of wide architectures through lockout, one after another.
const wideLaneArchs = 30

// cluster-paper parameters.
const (
	clusterNodes     = 3
	clusterShareK    = 2
	clusterRingSeed  = 42
	clusterHedgeMs   = 5   // hedge delay before a spare owner is asked
	clusterArchs     = 80  // cluster architectures provisioned
	clusterReveals   = 800 // reveals per architecture, below its LAB
	clusterSecretLen = 16
)

// secretLen is the protected key size: a 128-bit key, as in the paper's
// phone-unlock story.
const secretLen = 16

// OpKind distinguishes the operations of an open-loop schedule.
type OpKind uint8

const (
	// OpAccess is a legitimate, wear-consuming access.
	OpAccess OpKind = iota
	// OpStress is an attacker's stress burst: wear with no read.
	OpStress
)

// Op is one scheduled request of an open loop.
type Op struct {
	Seq     int    // request sequence number
	DueNs   int64  // due time, from the start of the measured phase
	Arch    int    // fleet index
	Kind    OpKind // access or stress
	Indices []int  // stress share indices (OpStress only)
}

// FleetArch is one architecture to provision.
type FleetArch struct {
	Seed    uint64
	Secret  []byte
	Leveled bool
}

// Schedule is everything a workload sends, derived from its seed before
// any timing starts: the fleet, and either the open-loop ops or the
// closed-loop lanes.
type Schedule struct {
	Fleet []FleetArch
	// Ops is the open-loop arrival sequence, sorted by due time.
	Ops []Op
	// Lanes[c] lists the fleet indices closed-loop caller c drives, in
	// order.
	Lanes [][]int
	// Reveals is how many cluster reveals each architecture serves.
	Reveals int
}

// Digest is a short hash of the whole schedule: equal seeds must print
// equal digests.
func (s *Schedule) Digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(s.Fleet)))
	for _, a := range s.Fleet {
		put(a.Seed)
		h.Write(a.Secret)
		if a.Leveled {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(len(s.Ops)))
	for _, op := range s.Ops {
		put(uint64(op.DueNs))
		put(uint64(op.Arch))
		put(uint64(op.Kind))
		for _, i := range op.Indices {
			put(uint64(i))
		}
	}
	for _, lane := range s.Lanes {
		put(uint64(len(lane)))
		for _, a := range lane {
			put(uint64(a))
		}
	}
	put(uint64(s.Reveals))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// newFleet draws n architectures; every leveledEvery-th one is leveled
// when leveled is set.
func newFleet(r *rng.RNG, n int, leveled bool, keyLen int) []FleetArch {
	fleet := make([]FleetArch, n)
	for i := range fleet {
		fleet[i].Seed = r.Uint64()
		fleet[i].Secret = make([]byte, keyLen)
		r.Bytes(fleet[i].Secret)
		fleet[i].Leveled = leveled && i%leveledEvery == leveledEvery-1
	}
	return fleet
}

// DurableSchedule derives the durable-fleet schedule: Poisson arrivals at
// rate per second over seconds, accesses drawn Zipf-skewed over the fleet
// (fleet index is popularity rank, so every seed runs the same hot set and
// the leveled quarter sits at ranks 4, 8, 12, …), and a stressFraction of
// stress bursts against the leveled quarter.
func DurableSchedule(seed uint64, rate, seconds float64) *Schedule {
	root := rng.New(seed).Derive("e2ebench/durable-fleet")
	s := &Schedule{Fleet: newFleet(root.Derive("fleet"), durableFleet, true, secretLen)}
	var leveled []int
	for i, a := range s.Fleet {
		if a.Leveled {
			leveled = append(leveled, i)
		}
	}
	cdf := zipfCDF(durableFleet, durableZipfS)
	r := root.Derive("ops")
	horizon := int64(seconds * 1e9)
	for t := int64(0); ; {
		t += int64(-math.Log(r.Float64Open()) / rate * 1e9)
		if t >= horizon {
			break
		}
		op := Op{Seq: len(s.Ops), DueNs: t}
		if r.Float64() < stressFraction {
			op.Kind = OpStress
			op.Arch = leveled[r.Intn(len(leveled))]
			op.Indices = r.Perm(paperN)[:stressIndices]
		} else {
			op.Arch = sort.SearchFloat64s(cdf, r.Float64())
		}
		s.Ops = append(s.Ops, op)
	}
	return s
}

// paperN is the share count n of a paperSpec design; stress indices are
// drawn below it.
const paperN = 140

// zipfCDF returns the cumulative distribution of a Zipf(s) law over ranks
// 1..n, normalized so the last entry is 1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// WideSchedule derives the wide-memory schedule: callers lanes of
// wideLaneArchs wide architectures each.
func WideSchedule(seed uint64, callers int) *Schedule {
	root := rng.New(seed).Derive("e2ebench/wide-memory")
	s := &Schedule{Fleet: newFleet(root.Derive("fleet"), callers*wideLaneArchs, false, secretLen)}
	s.Lanes = make([][]int, callers)
	for i := range s.Fleet {
		c := i % callers
		s.Lanes[c] = append(s.Lanes[c], i)
	}
	return s
}

// ClusterSchedule derives the cluster-paper schedule: clusterArchs
// architectures, each revealed clusterReveals times in order.
func ClusterSchedule(seed uint64) *Schedule {
	root := rng.New(seed).Derive("e2ebench/cluster-paper")
	s := &Schedule{
		Fleet:   newFleet(root.Derive("fleet"), clusterArchs, false, clusterSecretLen),
		Lanes:   [][]int{make([]int, clusterArchs)},
		Reveals: clusterReveals,
	}
	for i := range s.Lanes[0] {
		s.Lanes[0][i] = i
	}
	return s
}
