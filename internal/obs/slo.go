package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// SLO report: the typed output of a scenario run (internal/scenario), split
// along the repo's determinism boundary.
//
// The Canonical section is a pure function of the scenario spec and seed —
// planned population, churn, drift, ground truth, classification outcomes,
// and a digest over every lineage's class sequence. The determinism bar
// ("same seed → byte-identical report") is enforced on CanonicalBytes: two
// runs of the same seeded scenario must produce equal canonical sections,
// byte for byte, regardless of scheduling, -race, or wall-clock.
//
// The Measured section holds everything wall-clock-dependent — latency
// percentiles, shed counts, reconnect tallies, availability. Those can
// never be byte-stable across runs, so they are gated on SLO bars
// (benchdiff drill-verify) instead of byte equality.
//
// Nothing in either section may be a Go map: encoding/json iterates maps in
// sorted-key order, but keeping the structures map-free makes canonical
// byte-stability a non-event rather than a property to re-prove.

// SLOAccuracy splits classification accuracy along the drift axis: Calm
// covers every round classified before the lineage's first drift epoch,
// Drift every round at or after it. Lineages that never drift contribute to
// Calm only; accuracy-under-drift is the scenario's proxy for the paper's
// Fig. 6 unseen-user degradation, measured mid-day instead of at enrolment.
type SLOAccuracy struct {
	Overall float64 `json:"overall"`
	Calm    float64 `json:"calm"`
	Drift   float64 `json:"drift"`
	// CalmRounds/DriftRounds make the two rates auditable (and keep a
	// drift-free scenario's Drift=0 distinguishable from "0% correct").
	CalmRounds  int `json:"calmRounds"`
	DriftRounds int `json:"driftRounds"`
}

// SLOPhase is one phase's canonical plan and outcome.
type SLOPhase struct {
	Name string `json:"name"`
	// Users is the live lineage population during the phase; Rounds the
	// per-lineage round count; TotalRounds their product as actually planned
	// (population × rounds).
	Users       int `json:"users"`
	Rounds      int `json:"rounds"`
	TotalRounds int `json:"totalRounds"`
	// ColdStarts/Retired/Drifted count the churn and drift applied at phase
	// entry.
	ColdStarts int `json:"coldStarts"`
	Retired    int `json:"retired"`
	Drifted    int `json:"drifted"`
	// Chaos/Pressure record whether a fault or pressure window was open;
	// ShardOps names the planned shard-topology changes (kill, leave,
	// join) applied at phase entry. Together they are the drill plan whose
	// anti-vacuity bars drill-verify derives from the report itself.
	Chaos    bool     `json:"chaos"`
	Pressure bool     `json:"pressure"`
	ShardOps []string `json:"shardOps,omitempty"`
	// Correct/Accuracy are the phase's classification outcome against
	// ground truth (deterministic: sequences are pure functions of inputs).
	Correct  int     `json:"correct"`
	Accuracy float64 `json:"accuracy"`
}

// SLOCanonical is the deterministic half of the report.
type SLOCanonical struct {
	Name    string `json:"name"`
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	// Lineages is the total session lineages the day created (phase-0
	// population plus every later cold start); ColdStarts and Retired are
	// whole-day churn totals.
	Lineages    int         `json:"lineages"`
	ColdStarts  int         `json:"coldStarts"`
	Retired     int         `json:"retired"`
	TotalRounds int         `json:"totalRounds"`
	Phases      []SLOPhase  `json:"phases"`
	Accuracy    SLOAccuracy `json:"accuracy"`
	// Digest is a SHA-256 over every lineage's classification sequence (see
	// SLODigest) — the whole day's decisions compressed to one comparable
	// line.
	Digest string `json:"digest"`
}

// SLOPhaseMeasured is one phase's wall-clock outcome.
type SLOPhaseMeasured struct {
	Name         string  `json:"name"`
	OK           int     `json:"ok"`
	Shed         int     `json:"shed"`
	Reconnects   int     `json:"reconnects"`
	LatencyP50Ms float64 `json:"latencyP50Ms"`
	LatencyP95Ms float64 `json:"latencyP95Ms"`
	LatencyP99Ms float64 `json:"latencyP99Ms"`
}

// SLOMeasured is the wall-clock half of the report. Semantics follow the
// loadgen report columns: Shed counts 429/saturation rejections that were
// retried (they delay rounds, never lose them), ResumeSuccessRate is 1 when
// no resume was ever attempted, and Availability is uptime-weighted across
// stream lineages (1 − downtime/wall), 1 when no stream lineage exists.
type SLOMeasured struct {
	DurationS         float64 `json:"durationS"`
	OK                int     `json:"ok"`
	Errors            int     `json:"errors"`
	Shed              int     `json:"shed"`
	Reconnects        int     `json:"reconnects"`
	ResumeAttempts    int     `json:"resumeAttempts"`
	ResumeMisses      int     `json:"resumeMisses"`
	DoubleClassifies  int     `json:"doubleClassifies"`
	ResumeSuccessRate float64 `json:"resumeSuccessRate"`
	Availability      float64 `json:"availability"`
	ShedRate          float64 `json:"shedRate"`
	// Shard topology tallies (sharded runs only; zero on single-node days).
	// They live in the measured half because which sessions migrate depends
	// on wall-clock timing — the canonical section stays topology-blind by
	// construction, which is exactly the property the shard gate asserts.
	ShardKills      int                `json:"shardKills,omitempty"`
	ShardJoins      int                `json:"shardJoins,omitempty"`
	MigratedResumes int64              `json:"migratedResumes,omitempty"`
	Phases          []SLOPhaseMeasured `json:"phases"`
}

// SLOReport pairs the two halves.
type SLOReport struct {
	Canonical SLOCanonical `json:"canonical"`
	Measured  SLOMeasured  `json:"measured"`
}

// CanonicalBytes renders the canonical section alone, deterministically:
// fixed field order (struct order), no maps, Go's deterministic float64
// formatting. Two same-seed scenario runs must produce equal slices.
func (r *SLOReport) CanonicalBytes() ([]byte, error) {
	b, err := json.MarshalIndent(&r.Canonical, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: marshal canonical SLO section: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the full report as indented JSON.
func (r *SLOReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal SLO report: %w", err)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// SLODigest hashes per-lineage classification sequences into the canonical
// digest: for each lineage (in index order) its index, then its class
// sequence, all as fixed-width big-endian words so no two sequence shapes
// collide by concatenation.
func SLODigest(sequences [][]int) string {
	h := sha256.New()
	var w [8]byte
	put := func(v int) {
		binary.BigEndian.PutUint64(w[:], uint64(int64(v)))
		h.Write(w[:])
	}
	for i, seq := range sequences {
		put(i)
		put(len(seq))
		for _, c := range seq {
			put(c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
