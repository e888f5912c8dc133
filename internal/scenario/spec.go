// Package scenario is the fleet-scale scenario engine: it composes the
// repo's synthetic wearers (internal/synth), deterministic faults
// (internal/fault), serving stack (internal/fleet + internal/serve) and
// stream client (internal/loadgen) into a compressed "simulated day" — a
// seeded, declarative sequence of phases with diurnal population and
// activity-mix curves, user churn, per-wearer gait drift, and mid-run fault
// and pressure windows — and emits a typed SLO report (internal/obs).
//
// Determinism contract. Every lineage's payload stream is a pure function
// of (spec, seed, lineage index): the live engine and the serial replayer
// share one generator (lineageGen), so a zero-fault day's classification
// sequences are byte-identical to serial single-session execution, and the
// canonical half of the SLO report (population, churn, drift, accuracy,
// sequence digest) is byte-identical across same-seed runs — under -race,
// under chaos, under pressure. Wall-clock observations (latency, shed,
// reconnects, availability) live in the measured half and are gated on SLO
// bars instead (cmd/benchdiff drill-verify).
//
// RNG stream layout (all disjoint by construction): lineage L draws its
// private seed family from base = Spec.Seed + 7919·L + 13; base+1 decides
// HTTP-vs-stream transport, base+3+s seeds sensor s's continuous signal
// (mirroring loadgen's layout), base+6 seeds reconnect backoff jitter, and
// base + 1_000_003·(p+1) seeds the phase-p truth timeline. Fault windows
// derive per-phase chaos seeds as Spec.Seed + 1009·(p+1); gait drift derives
// from (wearer id, phase) inside synth.User.Drifted.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"origin/internal/experiments"
	"origin/internal/fault"
	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/synth"
)

// ChaosWindow is a per-phase connection-fault window, applied to the stream
// front's fault.ChaosListener at phase entry and closed again at the next
// phase that omits it. Fields mirror fault.ConnChaos with millisecond
// durations for JSON friendliness.
type ChaosWindow struct {
	KillRate         float64 `json:"killRate"`
	KillMinBytes     int     `json:"killMinBytes"`
	KillMaxBytes     int     `json:"killMaxBytes"`
	PartialWriteRate float64 `json:"partialWriteRate"`
	SlowReadRate     float64 `json:"slowReadRate"`
	SlowReadDelayMs  int     `json:"slowReadDelayMs"`
	AcceptDelayRate  float64 `json:"acceptDelayRate"`
	AcceptDelayMs    int     `json:"acceptDelayMs"`
}

// conn converts the window to the fault layer's config under a seed.
func (w *ChaosWindow) conn(seed int64) fault.ConnChaos {
	return fault.ConnChaos{
		Seed:             seed,
		KillRate:         w.KillRate,
		KillMinBytes:     w.KillMinBytes,
		KillMaxBytes:     w.KillMaxBytes,
		PartialWriteRate: w.PartialWriteRate,
		SlowReadRate:     w.SlowReadRate,
		SlowReadDelay:    time.Duration(w.SlowReadDelayMs) * time.Millisecond,
		AcceptDelayRate:  w.AcceptDelayRate,
		AcceptDelay:      time.Duration(w.AcceptDelayMs) * time.Millisecond,
	}
}

// PressureWindow is a per-phase serve-side stress window, applied through
// fleet.Manager.SetPressure at phase entry: slow rounds and forced shed.
// Shed rounds are retried (HTTP 429 loop client-side, saturation loop
// server-side on the stream front), so pressure stretches latency and burns
// the shed counter without ever losing a round.
type PressureWindow struct {
	WorkerDelayMs int   `json:"workerDelayMs"`
	ShedEvery     int64 `json:"shedEvery"`
}

func (w *PressureWindow) pressure() fleet.Pressure {
	return fleet.Pressure{
		WorkerDelay: time.Duration(w.WorkerDelayMs) * time.Millisecond,
		ShedEvery:   w.ShedEvery,
	}
}

// ShardOp is one shard-topology change applied at phase entry when the
// scenario runs against a sharded cluster (Handles.Cluster). Op is one of:
//
//   - "kill":  crash a replica abruptly — no drain, no goodbye persist. With
//     Replica empty the engine kills the replica owning the oldest live
//     lineage's session, guaranteeing at least one mid-stream migration.
//   - "leave": decommission a replica gracefully (drain, then stop).
//     Replica selection follows the kill rule when empty.
//   - "join":  start a fresh replica and join it to the ring (Replica must
//     be empty — the cluster names its own members).
//
// Topology is wall-clock machinery: shard ops never touch the canonical
// section, and a sharded day must replay byte-identical to the single-node
// serial replayer — that invariance is the shard gate.
type ShardOp struct {
	Op      string `json:"op"`
	Replica string `json:"replica,omitempty"`
}

// Phase is one segment of the simulated day.
type Phase struct {
	Name string `json:"name"`
	// Users is the live lineage population during the phase (the diurnal
	// arrival curve); Rounds is how many classify rounds each live lineage
	// runs before the phase ends; GapMs paces the arrival rate — each
	// lineage idles that long between rounds, so a phase's offered load is
	// Users/(latency+gap). Gaps are wall-clock only and shape the measured
	// section (availability's denominator is lifetime including idle, as on
	// a real device); the canonical section never sees them.
	Users  int `json:"users"`
	Rounds int `json:"rounds"`
	GapMs  int `json:"gapMs,omitempty"`
	// Mix holds per-class activity weights for the phase's truth timelines
	// (nil = uniform switching); MeanSegment/MinSegment shape segment
	// durations in rounds (defaults 6/2).
	Mix         []float64 `json:"mix,omitempty"`
	MeanSegment int       `json:"meanSegment,omitempty"`
	MinSegment  int       `json:"minSegment,omitempty"`
	// Churn retires that many of the oldest live lineages at phase entry
	// (their sessions are deleted server-side); replacements cold-start as
	// fresh lineages until the population reaches Users again. Population
	// shrinkage beyond Churn also retires oldest-first.
	Churn int `json:"churn,omitempty"`
	// Drift, when positive, drifts every surviving lineage's gait at phase
	// entry by this magnitude (see synth.User.Drifted) — injected into the
	// live sensor streams mid-flight via SensorStream.SetUser.
	Drift float64 `json:"drift,omitempty"`
	// CycleConns drops every live stream connection at phase entry, forcing
	// a reconnect+resume with no fault injection (users roaming networks).
	CycleConns bool `json:"cycleConns,omitempty"`
	// Chaos/Pressure open fault and stress windows for the phase's duration.
	Chaos    *ChaosWindow    `json:"chaos,omitempty"`
	Pressure *PressureWindow `json:"pressure,omitempty"`
	// ShardOps are shard-topology changes (kill/leave/join) applied at phase
	// entry; they require a sharded cluster handle (Handles.Cluster).
	ShardOps []ShardOp `json:"shardOps,omitempty"`
}

// Spec is a complete declarative scenario.
type Spec struct {
	Name    string `json:"name"`
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	// StreamFraction is the probability a lineage uses the binary stream
	// front instead of the HTTP/JSON front (drawn per lineage from its
	// private seed).
	StreamFraction float64 `json:"streamFraction"`
	// SensorsPerRound is how many sensors report fresh data per classify
	// round (1..3, default 1); StreamHop the steady-state samples per stream
	// frame (default loadgen.DefaultStreamHop); ReconnectMax the per-connect
	// redial budget (default 8 — raise it for kill-everything chaos days).
	SensorsPerRound int     `json:"sensorsPerRound"`
	StreamHop       int     `json:"streamHop"`
	ReconnectMax    int     `json:"reconnectMax"`
	Phases          []Phase `json:"phases"`
}

// Validate normalises defaults in place and reports the first invalid
// field. It is called by Run and SerialReplay; call it directly after
// assembling a Spec by hand.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	p, err := synth.ProfileByName(s.Profile)
	if err != nil {
		return err
	}
	if s.StreamFraction < 0 || s.StreamFraction > 1 {
		return fmt.Errorf("scenario: stream fraction %v outside [0,1]", s.StreamFraction)
	}
	if s.SensorsPerRound == 0 {
		s.SensorsPerRound = 1
	}
	if s.SensorsPerRound < 1 || s.SensorsPerRound > synth.NumLocations {
		return fmt.Errorf("scenario: sensors per round %d outside [1,%d]", s.SensorsPerRound, synth.NumLocations)
	}
	if s.StreamHop == 0 {
		s.StreamHop = loadgen.DefaultStreamHop
	}
	if s.StreamHop < 1 || s.StreamHop > experiments.Window {
		return fmt.Errorf("scenario: stream hop %d outside [1,%d]", s.StreamHop, experiments.Window)
	}
	if s.ReconnectMax == 0 {
		s.ReconnectMax = 8
	}
	if s.ReconnectMax < 1 {
		return fmt.Errorf("scenario: reconnect max %d below 1", s.ReconnectMax)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario: spec has no phases")
	}
	for i := range s.Phases {
		ph := &s.Phases[i]
		if ph.Name == "" {
			return fmt.Errorf("scenario: phase %d needs a name", i)
		}
		if ph.Users < 1 {
			return fmt.Errorf("scenario: phase %q users %d below 1", ph.Name, ph.Users)
		}
		if ph.Rounds < 1 {
			return fmt.Errorf("scenario: phase %q rounds %d below 1", ph.Name, ph.Rounds)
		}
		if ph.GapMs < 0 {
			return fmt.Errorf("scenario: phase %q gap %dms below 0", ph.Name, ph.GapMs)
		}
		if ph.Churn < 0 {
			return fmt.Errorf("scenario: phase %q churn %d below 0", ph.Name, ph.Churn)
		}
		if ph.Drift < 0 {
			return fmt.Errorf("scenario: phase %q drift %v below 0", ph.Name, ph.Drift)
		}
		if ph.MeanSegment == 0 {
			ph.MeanSegment = 6
		}
		if ph.MinSegment == 0 {
			ph.MinSegment = 2
		}
		if ph.MeanSegment <= ph.MinSegment || ph.MinSegment < 1 {
			return fmt.Errorf("scenario: phase %q segment bounds (mean %d, min %d) invalid",
				ph.Name, ph.MeanSegment, ph.MinSegment)
		}
		if ph.Mix != nil && len(ph.Mix) != p.NumClasses() {
			return fmt.Errorf("scenario: phase %q mix has %d weights, profile %s has %d classes",
				ph.Name, len(ph.Mix), s.Profile, p.NumClasses())
		}
		if ph.Chaos != nil {
			cc := ph.Chaos.conn(1)
			if err := cc.Validate(); err != nil {
				return fmt.Errorf("scenario: phase %q: %w", ph.Name, err)
			}
		}
		if ph.Pressure != nil {
			if ph.Pressure.WorkerDelayMs < 0 || ph.Pressure.ShedEvery < 0 {
				return fmt.Errorf("scenario: phase %q pressure fields must be non-negative", ph.Name)
			}
		}
		for _, op := range ph.ShardOps {
			switch op.Op {
			case "kill", "leave":
			case "join":
				if op.Replica != "" {
					return fmt.Errorf("scenario: phase %q: join op must not name a replica (the cluster names its members)", ph.Name)
				}
			default:
				return fmt.Errorf("scenario: phase %q: unknown shard op %q (want kill, leave or join)", ph.Name, op.Op)
			}
		}
	}
	return nil
}

// HasChaos reports whether any phase opens a connection-fault window.
func (s *Spec) HasChaos() bool {
	for i := range s.Phases {
		if s.Phases[i].Chaos != nil {
			return true
		}
	}
	return false
}

// HasPressure reports whether any phase opens a serve-pressure window.
func (s *Spec) HasPressure() bool {
	for i := range s.Phases {
		if s.Phases[i].Pressure != nil {
			return true
		}
	}
	return false
}

// HasShardOps reports whether any phase changes shard topology.
func (s *Spec) HasShardOps() bool {
	for i := range s.Phases {
		if len(s.Phases[i].ShardOps) > 0 {
			return true
		}
	}
	return false
}

// LoadSpec reads a Spec from a JSON file and validates it.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: read spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// mixFor builds a weight vector over p's classes from named weights;
// unnamed activities get weight 1, so the same shorthand works across the
// MHEALTH and PAMAP2 class sets.
func mixFor(p *synth.Profile, weights map[string]float64) []float64 {
	m := make([]float64, p.NumClasses())
	for i, a := range p.Activities {
		if w, ok := weights[a]; ok {
			m[i] = w
		} else {
			m[i] = 1
		}
	}
	return m
}

// DayScenario is the built-in chaos day: a compressed diurnal cycle of six
// phases — quiet night, dawn ramp, morning rush under serve pressure,
// midday gait drift, an evening connection-chaos storm with roaming users,
// and a wind-down — sized to finish in CI seconds under -race while still
// exercising every axis (population curve, mix curve, churn, drift, forced
// shed, kill-everything chaos, resume).
func DayScenario(profileName string, seed int64) (*Spec, error) {
	p, err := synth.ProfileByName(profileName)
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name:           "day",
		Profile:        profileName,
		Seed:           seed,
		StreamFraction: 0.5,
		ReconnectMax:   16, // the chaos phase kills every connection; give redials headroom
		Phases: []Phase{
			{Name: "night", Users: 3, Rounds: 6, GapMs: 72,
				Mix: mixFor(p, map[string]float64{"Walking": 6, "Cycling": 2, "Running": 0.5, "Jogging": 0.5, "Jumping": 0.5})},
			{Name: "dawn", Users: 4, Rounds: 8, GapMs: 48, Churn: 1,
				Mix: mixFor(p, map[string]float64{"Walking": 4, "Climbing": 2, "Jogging": 2})},
			{Name: "morning-rush", Users: 6, Rounds: 10, GapMs: 2, Churn: 1,
				Mix:      mixFor(p, map[string]float64{"Running": 4, "Jogging": 4, "Walking": 2, "Cycling": 0.5, "Jumping": 0.5}),
				Pressure: &PressureWindow{WorkerDelayMs: 1, ShedEvery: 7}},
			{Name: "midday-drift", Users: 6, Rounds: 10, GapMs: 24, Churn: 1, Drift: 1},
			{Name: "evening-chaos", Users: 5, Rounds: 10, GapMs: 60, Churn: 2, CycleConns: true,
				Mix: mixFor(p, map[string]float64{"Walking": 3, "Cycling": 3}),
				// The byte budget is sized so a connection dies roughly once
				// during the phase: every kill costs real downtime (a redial
				// plus resume handshake runs up to ~10ms under the race
				// detector), so the day's idle gaps — the availability
				// denominator — must dwarf the worst-case sum of kills.
				Chaos: &ChaosWindow{KillRate: 1, KillMinBytes: 1024, KillMaxBytes: 4096, PartialWriteRate: 0.25}},
			{Name: "wind-down", Users: 3, Rounds: 6, GapMs: 72, Churn: 2,
				Mix: mixFor(p, map[string]float64{"Walking": 5, "Cycling": 3, "Running": 0.5, "Jogging": 0.5, "Jumping": 0.5})},
		},
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// CalmScenario is the built-in zero-fault day: no chaos, no pressure, but
// the full lifecycle machinery — churn, drift, connection cycling — so the
// replay determinism bar covers every non-fault axis. This is the scenario
// the "live ≡ serial replay" acceptance test runs.
func CalmScenario(profileName string, seed int64) (*Spec, error) {
	s := &Spec{
		Name:           "calm",
		Profile:        profileName,
		Seed:           seed,
		StreamFraction: 0.5,
		Phases: []Phase{
			{Name: "morning", Users: 4, Rounds: 8},
			{Name: "noon", Users: 5, Rounds: 8, Churn: 1, Drift: 1},
			{Name: "evening", Users: 3, Rounds: 8, Churn: 2, CycleConns: true},
		},
	}
	if _, err := synth.ProfileByName(profileName); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ShardScenario is the built-in shard-chaos day: every lineage on the stream
// front (so every migration crosses the resume machinery), a steady opening
// phase, a mid-day replica crash, a fresh replica joining with churned
// population, and a settle phase. No connection chaos and no pressure — the
// only adversary is topology, which keeps the gate's blame assignment sharp:
// any divergence from serial replay is the sharding layer's fault. Run it
// against a cluster of at least two replicas (three in CI, so a kill still
// leaves a quorum of survivors to rebalance across).
func ShardScenario(profileName string, seed int64) (*Spec, error) {
	if _, err := synth.ProfileByName(profileName); err != nil {
		return nil, err
	}
	s := &Spec{
		Name:           "shard",
		Profile:        profileName,
		Seed:           seed,
		StreamFraction: 1,
		ReconnectMax:   16, // severed splices redial through ownership moves
		Phases: []Phase{
			{Name: "steady", Users: 4, Rounds: 8},
			{Name: "shard-crash", Users: 4, Rounds: 8,
				ShardOps: []ShardOp{{Op: "kill"}}},
			{Name: "shard-join", Users: 5, Rounds: 8, Churn: 1,
				ShardOps: []ShardOp{{Op: "join"}}},
			{Name: "settle", Users: 4, Rounds: 8, Churn: 1},
		},
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
