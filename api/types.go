// Package api is the public wire contract of the lemonaded HTTP service:
// the request/response types for every endpoint, and a typed client.
//
// The types are pure data — plain structs with JSON tags and no
// dependency on the server's internals — so external tooling can import
// this package alone. The server converts between these wire forms and
// its domain types at the handler boundary; the golden determinism tests
// pin the JSON produced here, so field names and ordering are part of
// the compatibility contract.
package api

// SpecRequest is the wire form of a design problem: flat JSON, with the
// same defaulting as the CLI (99%/1% criteria when omitted).
type SpecRequest struct {
	Alpha           float64 `json:"alpha"`
	Beta            float64 `json:"beta"`
	MinWork         float64 `json:"min_work,omitempty"`
	MaxOverrun      float64 `json:"max_overrun,omitempty"`
	LAB             int     `json:"lab"`
	UpperBound      int     `json:"upper_bound,omitempty"`
	KFrac           float64 `json:"kfrac,omitempty"`
	ContinuousT     bool    `json:"continuous_t,omitempty"`
	MaxPerStructure int     `json:"max_per_structure,omitempty"`
}

// DesignResponse is the wire form of a solved design.
type DesignResponse struct {
	T                     int     `json:"t"`
	UpperT                int     `json:"upper_t"`
	N                     int     `json:"n"`
	K                     int     `json:"k"`
	Copies                int     `json:"copies"`
	TotalDevices          int     `json:"total_devices"`
	GuaranteedMinAccesses int     `json:"guaranteed_min_accesses"`
	MaxAllowedAccesses    int     `json:"max_allowed_accesses"`
	WorkProb              float64 `json:"work_prob"`
	OverrunProb           float64 `json:"overrun_prob"`
}

// ProvisionRequest fabricates an architecture. The seed is mandatory in
// spirit — omitting it means seed 0, which is still fully deterministic.
//
// Setting Spares or RemapEpoch provisions the wear-leveled variant: each
// serial copy is fabricated with Spares extra switches behind a
// programmable remap table, and the daemon rotates assignments onto the
// least-worn switches every RemapEpoch operations (immediately when an
// assigned switch dies). Both zero provisions the plain architecture,
// whose wire encoding is unchanged.
type ProvisionRequest struct {
	Spec      SpecRequest `json:"spec"`
	SecretHex string      `json:"secret_hex"`
	Seed      uint64      `json:"seed"`
	// Spares is the spare-switch complement per copy (0 = unleveled).
	Spares int `json:"spares,omitempty"`
	// RemapEpoch is the rotation schedule in operations; 0 with Spares set
	// lets the server pick its default epoch.
	RemapEpoch uint64 `json:"remap_epoch,omitempty"`
	// Share, when set, provisions one Shamir share of a cluster
	// architecture: SecretHex carries the encoded share payload (one X
	// byte, then the share data) and the architecture is registered
	// under the placement's share ID. Only cluster nodes accept it.
	Share *SharePlacement `json:"share,omitempty"`
}

// SharePlacement names one share of a cluster architecture. The
// receiving node re-derives placement from its ring — ClusterID placed
// with ShareTotal owners must put ShareIndex on this node, or the
// provision is refused with 421 Misdirected Request.
type SharePlacement struct {
	ClusterID  string `json:"cluster_id"`
	ShareIndex int    `json:"share_index"`
	ShareTotal int    `json:"share_total"`
}

// ProvisionResponse identifies the provisioned architecture.
type ProvisionResponse struct {
	ID     string         `json:"id"`
	Seed   uint64         `json:"seed"`
	Cached bool           `json:"design_cached"`
	Design DesignResponse `json:"design"`
	// Spares and RemapEpoch echo the wear-leveling variant actually
	// provisioned (defaulting applied); both absent for plain
	// architectures.
	Spares     int    `json:"spares,omitempty"`
	RemapEpoch uint64 `json:"remap_epoch,omitempty"`
}

// StressRequest parameterizes one adversarial stress burst: Pulses
// actuations of each listed share index under the given environment.
// Stress consumes wearout exactly like an access but never attempts
// reconstruction — the response carries no key material by construction.
type StressRequest struct {
	TempCelsius float64 `json:"temp_celsius,omitempty"` // 0 = room temperature
	Indices     []int   `json:"indices"`                // share indices to actuate, each in [0, n)
	Pulses      int     `json:"pulses,omitempty"`       // actuations per index (0 = 1)
}

// StressResponse reports one applied stress burst. It deliberately has
// no secret field: stress wears the hardware without revealing anything.
type StressResponse struct {
	Conducted int    `json:"conducted"` // actuations that conducted (still-working switches)
	Pulses    int    `json:"pulses"`    // pulses applied per index (after defaulting)
	Stressed  uint64 `json:"stressed"`  // lifetime stress pulses against this architecture
	Remaps    uint64 `json:"remaps"`    // wear-leveling rotations performed so far
}

// AccessRequest parameterizes one access; the zero value means room
// temperature (the paper's nominal environment).
type AccessRequest struct {
	TempCelsius float64 `json:"temp_celsius,omitempty"`
}

// AccessResponse reports one successful access.
type AccessResponse struct {
	SecretHex  string `json:"secret_hex"`
	Attempts   uint64 `json:"attempts"`   // total accesses attempted so far
	Successful uint64 `json:"successful"` // accesses that yielded the secret
	Copy       int    `json:"copy"`       // copy index that served this access
}

// WearLevelingStatus is the wear-leveling block of a status report, only
// present for architectures provisioned with spares.
type WearLevelingStatus struct {
	Spares          int     `json:"spares"`           // spare complement per copy
	RemapEpoch      uint64  `json:"remap_epoch"`      // rotation schedule in operations
	Remaps          uint64  `json:"remaps"`           // rotations performed
	SparesRemaining int     `json:"spares_remaining"` // usable unassigned switches, summed over copies
	WearSkew        float64 `json:"wear_skew"`        // max−min wear over the active copy's serviceable pool
	Stressed        uint64  `json:"stressed"`         // lifetime stress pulses absorbed
}

// StatusResponse reports an architecture's wearout state. WearLeveling
// is nil for plain architectures, keeping their encoding unchanged.
type StatusResponse struct {
	ID              string              `json:"id"`
	Alive           bool                `json:"alive"`
	Attempts        uint64              `json:"attempts"`
	Successful      uint64              `json:"successful"`
	CurrentCopy     int                 `json:"current_copy"`
	ExhaustedCopies int                 `json:"exhausted_copies"`
	Design          DesignResponse      `json:"design"`
	WearLeveling    *WearLevelingStatus `json:"wear_leveling,omitempty"`
}

// ArchitectureSummary is one row of the fleet listing.
type ArchitectureSummary struct {
	ID         string `json:"id"`
	Alive      bool   `json:"alive"`
	Attempts   uint64 `json:"attempts"`
	Successful uint64 `json:"successful"`
}

// ListResponse answers GET /v1/architectures. Architectures come in
// deterministic ascending ID order; NextAfterID, when set, is the cursor
// for the following page (pass it as ?after_id=).
type ListResponse struct {
	Architectures []ArchitectureSummary `json:"architectures"`
	NextAfterID   string                `json:"next_after_id,omitempty"`
}

// AccessEvent is one completed access attempt, as reported by the events
// endpoint. Outcome is one of "success", "transient", "exhausted",
// "decode_failed".
type AccessEvent struct {
	Attempt    uint64 `json:"attempt"` // 1-based attempt number
	Copy       int    `json:"copy"`    // copy that served (or refused) the access
	Conducting int    `json:"conducting"`
	Outcome    string `json:"outcome"`
}

// EventsResponse answers GET /v1/architectures/{id}/events: the most
// recent access events, oldest first. The buffer is in-memory telemetry
// bounded by the server's ring size; after a daemon restart it holds
// only events replayed since the last snapshot.
type EventsResponse struct {
	ID     string        `json:"id"`
	Events []AccessEvent `json:"events"`
}

// ExploreResponse answers a cached design search.
type ExploreResponse struct {
	Cached bool           `json:"cached"`
	Design DesignResponse `json:"design"`
}

// FrontierResponse answers a frontier enumeration.
type FrontierResponse struct {
	Count   int              `json:"count"`
	Designs []DesignResponse `json:"designs"`
}

// RingResponse answers GET /v1/cluster/ring: the node's view of the
// placement configuration. Two nodes (or a node and a client) agree on
// placement iff they agree on Seed and Nodes.
type RingResponse struct {
	Self  string   `json:"self"`
	Seed  uint64   `json:"seed"`
	Nodes []string `json:"nodes"` // canonical (sorted) ring membership
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"` // set for spec validation failures
	Retry bool   `json:"retry,omitempty"` // set when retrying may succeed
}
