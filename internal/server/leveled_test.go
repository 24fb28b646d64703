package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// provisionLeveled provisions the golden spec with a spare complement and
// an explicit rotation epoch.
func provisionLeveled(t *testing.T, baseURL string, seed uint64, spares int, epoch uint64) ProvisionResponse {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: seed,
		Spares: spares, RemapEpoch: epoch,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("leveled provision: status %d: %s", resp.StatusCode, body)
	}
	var pr ProvisionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestLeveledProvisionEcho: the provision response echoes the leveling
// actually applied, including the server's epoch default, while a plain
// provision's wire encoding stays byte-for-byte free of leveling fields
// (the golden-JSON compatibility contract).
func TestLeveledProvisionEcho(t *testing.T) {
	_, ts := testServer(t)

	pr := provisionLeveled(t, ts.URL, 42, 4, 6)
	if pr.Spares != 4 || pr.RemapEpoch != 6 {
		t.Errorf("echo = (spares %d, epoch %d), want (4, 6)", pr.Spares, pr.RemapEpoch)
	}

	// Spares without an epoch gets the server default.
	pr = provisionLeveled(t, ts.URL, 43, 2, 0)
	if pr.RemapEpoch != defaultRemapEpoch {
		t.Errorf("defaulted epoch = %d, want %d", pr.RemapEpoch, defaultRemapEpoch)
	}

	// A plain provision must not leak leveling fields into its JSON.
	resp, body := postJSON(t, ts.URL+"/v1/architectures", ProvisionRequest{
		Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: 44,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain provision: status %d: %s", resp.StatusCode, body)
	}
	for _, forbidden := range []string{"spares", "remap_epoch", "wear_leveling"} {
		if strings.Contains(string(body), forbidden) {
			t.Errorf("plain provision JSON contains %q: %s", forbidden, body)
		}
	}

	// Negative and absurd spare counts are refused with the field named.
	for _, spares := range []int{-1, maxSpares + 1} {
		resp, body := postJSON(t, ts.URL+"/v1/architectures", ProvisionRequest{
			Spec: goldenSpec, SecretHex: goldenSecretHex, Seed: 45, Spares: spares,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spares=%d: status %d, want 400: %s", spares, resp.StatusCode, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Field != "spares" {
			t.Errorf("spares=%d: field %q, want spares", spares, er.Field)
		}
	}
}

// TestLeveledStatusBlock: leveled architectures report the wear-leveling
// block; plain ones omit it entirely from the wire encoding.
func TestLeveledStatusBlock(t *testing.T) {
	_, ts := testServer(t)
	pr := provisionLeveled(t, ts.URL, 42, 4, 6)
	postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/access", nil)

	_, body := getJSON(t, ts.URL+"/v1/architectures/"+pr.ID)
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.WearLeveling == nil {
		t.Fatalf("leveled status has no wear_leveling block: %s", body)
	}
	wl := st.WearLeveling
	if wl.Spares != 4 || wl.RemapEpoch != 6 {
		t.Errorf("wear_leveling = (spares %d, epoch %d), want (4, 6)", wl.Spares, wl.RemapEpoch)
	}
	if wl.SparesRemaining < 0 || wl.WearSkew < 0 {
		t.Errorf("wear_leveling reports negative state: %+v", wl)
	}

	plain := provisionGolden(t, ts.URL, 7)
	_, body = getJSON(t, ts.URL+"/v1/architectures/"+plain.ID)
	if strings.Contains(string(body), "wear_leveling") {
		t.Errorf("plain status JSON contains wear_leveling: %s", body)
	}
}

// TestStressEndpoint drives the adversarial stress route: validation with
// named fields, a hot burst that consumes wear without revealing key
// bytes, rotation visible in the response counters, and the wear metrics
// present in the scrape.
func TestStressEndpoint(t *testing.T) {
	s, ts := testServer(t)
	pr := provisionLeveled(t, ts.URL, 42, 4, 3)
	stressURL := ts.URL + "/v1/architectures/" + pr.ID + "/stress"

	// Unknown architecture → 404.
	resp, _ := postJSON(t, ts.URL+"/v1/architectures/arch-999999/stress", StressRequest{Indices: []int{0}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	}

	// A stress body is mandatory — there is no harmless default burst.
	resp, _ = postJSON(t, stressURL, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}

	// Field validation names the offending field.
	for _, tc := range []struct {
		req   StressRequest
		field string
	}{
		{StressRequest{Indices: nil, Pulses: 1}, "indices"},
		{StressRequest{Indices: []int{-1}}, "indices"},
		{StressRequest{Indices: []int{pr.Design.N}}, "indices"},
		{StressRequest{Indices: []int{0}, Pulses: maxStressPulses + 1}, "pulses"},
		{StressRequest{Indices: []int{0}, Pulses: -3}, "pulses"},
	} {
		resp, body := postJSON(t, stressURL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400: %s", tc.req, resp.StatusCode, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Field != tc.field {
			t.Errorf("%+v: field %q, want %q", tc.req, er.Field, tc.field)
		}
	}

	// A hot targeted burst: wear consumed, no key material in the body.
	var last StressResponse
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, stressURL, StressRequest{
			TempCelsius: 400, Indices: []int{0, 1}, Pulses: 2,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stress %d: status %d: %s", i, resp.StatusCode, body)
		}
		if strings.Contains(string(body), "secret") || strings.Contains(string(body), goldenSecretHex) {
			t.Fatalf("stress response leaks key material: %s", body)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if last.Pulses != 2 {
			t.Errorf("stress %d: pulses = %d, want 2", i, last.Pulses)
		}
	}
	if last.Stressed != 16 {
		t.Errorf("lifetime stressed = %d, want 16 (8 bursts x 2 pulses)", last.Stressed)
	}
	if last.Remaps == 0 {
		t.Error("sustained hot stress never triggered a wear-leveling rotation")
	}
	if got := s.mStressPulses.Value(); got != 16 {
		t.Errorf("lemonaded_stress_pulses_total = %d, want 16", got)
	}

	// Stress does not consume the access budget or reveal through status.
	_, body := getJSON(t, ts.URL+"/v1/architectures/"+pr.ID)
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Attempts != 0 {
		t.Errorf("stress consumed %d accesses", st.Attempts)
	}
	if st.WearLeveling == nil || st.WearLeveling.Stressed != 16 {
		t.Errorf("status wear_leveling = %+v, want 16 stressed", st.WearLeveling)
	}

	// The wear metrics are in the scrape, with the per-arch labels.
	resp, body = getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		"lemonaded_stress_pulses_total 16",
		"lemonaded_wearout_remaps_total",
		`lemonaded_spares_remaining{arch="` + pr.ID + `"}`,
		`lemonaded_wear_skew_millis{arch="` + pr.ID + `"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The rotation count is summed over the fleet at scrape time, and
	// this architecture is the fleet's only leveled one.
	if want := fmt.Sprintf("lemonaded_wearout_remaps_total %d\n", last.Remaps); !strings.Contains(out, want) {
		t.Errorf("metrics exposition lacks %q", want)
	}
}

// TestStressPlainArchitecture: stress works against unleveled hardware
// too (the attack does not require the defense), it just never remaps.
func TestStressPlainArchitecture(t *testing.T) {
	_, ts := testServer(t)
	pr := provisionGolden(t, ts.URL, 42)
	resp, body := postJSON(t, ts.URL+"/v1/architectures/"+pr.ID+"/stress", StressRequest{
		TempCelsius: 400, Indices: []int{0}, Pulses: 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stress plain: status %d: %s", resp.StatusCode, body)
	}
	var sr StressResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Remaps != 0 {
		t.Errorf("plain architecture reported %d remaps", sr.Remaps)
	}
	if sr.Stressed != 3 {
		t.Errorf("stressed = %d, want 3", sr.Stressed)
	}
	// No per-arch wear gauges for unleveled hardware.
	_, body = getJSON(t, ts.URL+"/metrics")
	if strings.Contains(string(body), `lemonaded_spares_remaining{arch="`+pr.ID+`"}`) {
		t.Errorf("plain architecture exported a spares gauge")
	}
}
