package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/metrics"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/weibull"
)

// fuzzSegment builds a well-formed one-segment WAL: one provision of a
// small real architecture plus a few access records. The fuzzer mutates
// from here into torn tails, flipped CRCs, spliced records, and garbage.
func fuzzSegment(t testing.TB) []byte {
	t.Helper()
	spec := dse.Spec{
		Dist:        weibull.MustNew(6, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         30,
		KFrac:       0.10,
		ContinuousT: true,
	}
	design, err := dse.Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	prov := registry.ProvisionRecord{
		ID:     "arch-000001",
		Seed:   42,
		Secret: []byte("0123456789abcdef"),
		Design: design,
	}
	var buf []byte
	frame := func(r record) {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = appendFrame(buf, payload); err != nil {
			t.Fatal(err)
		}
	}
	frame(record{Type: "provision", Record: registry.Record{Provision: &prov}})
	for i := 0; i < 3; i++ {
		frame(record{Type: "access", Record: registry.Record{Access: &registry.AccessRecord{ID: prov.ID, TempCelsius: 25}}})
	}
	return buf
}

// fuzzRecoverable rejects inputs whose well-formed frames describe
// absurdly large architectures. Replay rebuilds provisioned hardware
// with core.Build, so a single valid frame declaring a billion-device
// design would make the fuzzer OOM on a structurally boring input; real
// recovery has the same cost profile, which operators accept because
// they wrote the log themselves. Damaged frames pass through freely —
// they are the point of the fuzz.
func fuzzRecoverable(data []byte) bool {
	if len(data) > 1<<16 {
		return false // a real segment this interesting fits in 64 KiB
	}
	ok := true
	frames, provisions := 0, 0
	_, _, _ = scanFrames("fuzz", data, func(payload []byte) error {
		frames++
		if frames > 256 {
			ok = false
			return nil
		}
		var r record
		if json.Unmarshal(payload, &r) != nil {
			return nil
		}
		// A stress frame replays pulses × indices actuations; bound the
		// product so one lucky CRC-preserving mutation cannot buy minutes
		// of spinning on a structurally boring input.
		if r.Stress != nil {
			if int64(r.Stress.Pulses)*int64(max(len(r.Stress.Indices), 1)) > 1<<12 {
				ok = false
			}
			return nil
		}
		if r.Provision == nil {
			return nil
		}
		provisions++
		if provisions > 4 || !fuzzCheapBuild(r.Provision.Design, r.Provision.Spares, r.Provision.Secret) {
			ok = false
		}
		return nil
	})
	return ok
}

// fuzzCheapBuild reports whether rebuilding one architecture stays in the
// milliseconds. A rebuild costs roughly secret × N × K field operations;
// bound every factor, including the wear-leveling spare complement, which
// fabricates extra switches per copy (Build with N=4096, K=512 and a
// 512-byte secret takes seconds).
func fuzzCheapBuild(d dse.Design, spares int, secret []byte) bool {
	return d.N >= 0 && d.Copies >= 0 && d.K <= 1<<6 &&
		(int64(d.N)+int64(max(spares, 0)))*int64(max(d.Copies, 1)) <= 1<<11 &&
		len(secret) <= 1<<7
}

// recoverBytes writes data as the only WAL segment of a fresh directory
// and runs full recovery over it, returning the recovered registry (nil
// when recovery refused the input).
func recoverBytes(t *testing.T, data []byte) (*registry.Registry, RecoveryStats, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Config{Dir: dir, Metrics: metrics.NewRegistry()})
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	defer func() { _ = st.Close() }()
	reg := registry.NewWithStore(1, st)
	stats, err := st.Recover(reg)
	if err != nil {
		return nil, stats, err
	}
	return reg, stats, nil
}

// archStates captures every recovered architecture's exact wear state.
func archStates(reg *registry.Registry) map[string]core.State {
	out := make(map[string]core.State)
	reg.Range(func(e *registry.Entry) bool {
		out[e.ID] = e.Arch.State()
		return true
	})
	return out
}

// FuzzWALFrameDecode feeds arbitrary bytes to the WAL recovery path as a
// log segment. The contract under fuzz is recover-or-refuse:
//
//   - recovery never panics, whatever the bytes;
//   - when recovery succeeds, it is idempotent — recovering the same
//     bytes again yields bit-identical wear state (recovery can never
//     mint or refund wearout, the invariant the whole package exists
//     to protect);
//   - when recovery refuses, the error is a classified one (corruption
//     or a rebuild failure), not a crash.
func FuzzWALFrameDecode(f *testing.F) {
	valid := fuzzSegment(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])     // torn tail: partial final frame
	f.Add(valid[:frameHeader-2])    // torn tail: partial first header
	f.Add([]byte{})                 // empty segment
	f.Add([]byte("not a wal file")) // garbage
	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0xff // CRC field of the first frame
	f.Add(flipped)
	spliced := append([]byte(nil), valid...)
	spliced[len(spliced)-1] ^= 0x01 // payload bit flip: CRC mismatch in last frame
	f.Add(spliced)

	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzRecoverable(data) {
			t.Skip("well-formed frame declares an absurdly large design")
		}
		reg1, stats1, err := recoverBytes(t, data)
		if err != nil {
			return // refused cleanly; nothing was served
		}
		// Success ⇒ replaying the identical bytes must land on the
		// identical wear state: same record counts, same per-architecture
		// device states.
		reg2, stats2, err := recoverBytes(t, data)
		if err != nil {
			t.Fatalf("recovery accepted the bytes once, refused them the second time: %v", err)
		}
		if stats1.ReplayedProvisions != stats2.ReplayedProvisions ||
			stats1.ReplayedAccesses != stats2.ReplayedAccesses ||
			stats1.TornBytesTruncated != stats2.TornBytesTruncated {
			t.Fatalf("recovery stats diverged across identical inputs: %+v vs %+v", stats1, stats2)
		}
		s1, s2 := archStates(reg1), archStates(reg2)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("wear state diverged across identical inputs: %+v vs %+v", s1, s2)
		}
	})
}

// TestFuzzSeedCorpus pins the seed corpus outcomes so the fuzz target's
// classification stays honest even when nobody runs the fuzzer: the
// valid and torn segments recover, the CRC-damaged ones refuse with
// *CorruptionError.
func TestFuzzSeedCorpus(t *testing.T) {
	valid := fuzzSegment(t)

	reg, stats, err := recoverBytes(t, valid)
	if err != nil {
		t.Fatalf("valid segment refused: %v", err)
	}
	if stats.ReplayedProvisions != 1 || stats.ReplayedAccesses != 3 {
		t.Fatalf("valid segment: replayed %d/%d, want 1/3", stats.ReplayedProvisions, stats.ReplayedAccesses)
	}
	if reg.Len() != 1 {
		t.Fatalf("valid segment: %d architectures, want 1", reg.Len())
	}

	_, stats, err = recoverBytes(t, valid[:len(valid)-3])
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if stats.TornBytesTruncated == 0 {
		t.Fatal("torn tail not truncated")
	}
	if stats.ReplayedAccesses != 2 {
		t.Fatalf("torn tail: replayed %d accesses, want 2 (the torn record must not count)", stats.ReplayedAccesses)
	}

	flipped := append([]byte(nil), valid...)
	flipped[4] ^= 0xff
	_, _, err = recoverBytes(t, flipped)
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("flipped CRC: got %v, want *CorruptionError", err)
	}
}

// TestReplayRefusesMalformedRecords: recovery refuses, as corruption, any
// CRC-valid frame the writer would never have produced. A frame with two
// variants must not replay one of them and silently drop the other, and
// a frame whose type tag disagrees with its variant is damage too.
func TestReplayRefusesMalformedRecords(t *testing.T) {
	valid := fuzzSegment(t) // frames 0-3: a provision, then three accesses
	for _, tc := range []struct{ name, payload string }{
		{"no variant", `{"t":"access"}`},
		{"two variants", `{"t":"access","a":{"id":"arch-000001","temp_celsius":25},"p":{"id":"arch-000002","seed":1}}`},
		{"mismatched tag", `{"t":"stress","a":{"id":"arch-000001","temp_celsius":25}}`},
		{"unknown tag", `{"t":"wipe","a":{"id":"arch-000001","temp_celsius":25}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := appendFrame(append([]byte(nil), valid...), []byte(tc.payload))
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := recoverBytes(t, data)
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("got %v (stats %+v), want *CorruptionError", err, stats)
			}
			if ce.File != segName(1) || ce.Record != 4 {
				t.Fatalf("error names %s record %d, want %s record 4: %v", ce.File, ce.Record, segName(1), err)
			}
		})
	}
}

// fuzzSnapshot builds a well-formed snapshot file, in the current format,
// of two small architectures, one of them wear-leveled, each a few
// operations in.
func fuzzSnapshot(tb testing.TB) []byte {
	tb.Helper()
	d := testDesign(tb)
	reg := registry.New(1)
	var archs []snapshotArch
	for i := 0; i < 2; i++ {
		arch := buildFleetArch(tb, d, i)
		for op := 0; op < 4; op++ {
			_, _ = arch.Access(accessEnv(op))
		}
		e, err := reg.Provision(arch, uint64(testSeed+i), testSecret())
		if err != nil {
			tb.Fatal(err)
		}
		archs = append(archs, captureArch(e))
	}
	data, err := encodeSnapshot(snapshotHeader{Format: snapshotFormat, Epoch: 2, CreatedUnixNanos: 1}, archs)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzSnapshotRecoverable is fuzzRecoverable for a snapshot file: it
// rejects inputs whose well-formed frames would rebuild many or absurdly
// large architectures.
func fuzzSnapshotRecoverable(data []byte) bool {
	if len(data) > 1<<16 {
		return false
	}
	var archs []snapshotArch
	_, _, _ = scanFrames("fuzz", data, func(payload []byte) error {
		if len(archs) == 0 {
			var hdr snapshotHeader
			if json.Unmarshal(payload, &hdr) == nil {
				archs = append(archs, hdr.Archs...)
			}
		}
		if len(payload) >= 4 {
			n := uint64(binary.LittleEndian.Uint32(payload))
			var a snapshotArch
			if n <= uint64(len(payload)-4) && json.Unmarshal(payload[4:4+n], &a) == nil {
				archs = append(archs, a)
			}
		}
		return nil
	})
	if len(archs) > 4 {
		return false
	}
	for _, a := range archs {
		if !fuzzCheapBuild(a.Design, a.Spares, a.Secret) {
			return false
		}
	}
	return true
}

// FuzzSnapshotDecode feeds arbitrary bytes to recovery as the newest
// snapshot. The contract is the one FuzzWALFrameDecode holds for log
// segments: recovery never panics, and bytes it accepts once recover to
// bit-identical wear state every time.
func FuzzSnapshotDecode(f *testing.F) {
	valid := fuzzSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	for _, old := range []string{"format1", "format2"} {
		data, err := os.ReadFile(filepath.Join("testdata", old, snapName(2)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzSnapshotRecoverable(data) {
			t.Skip("well-formed frames declare too many or too large architectures")
		}
		reg1, err := recoverSnapshotBytes(t, data)
		if err != nil {
			return // refused cleanly; nothing was served
		}
		reg2, err := recoverSnapshotBytes(t, data)
		if err != nil {
			t.Fatalf("recovery accepted the snapshot once, refused it the second time: %v", err)
		}
		if s1, s2 := archStates(reg1), archStates(reg2); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("wear state diverged across identical snapshots: %+v vs %+v", s1, s2)
		}
	})
}
