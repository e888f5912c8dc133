// Package host models the battery-backed host device (the paper's mobile
// phone): it receives the few-byte classification results from the sensor
// nodes, remembers each sensor's most recent classification (the recall
// store behind AASR, §III-B), anticipates the next activity, and runs the
// ensemble aggregation — naive majority voting for the baselines/AASR and
// confidence-matrix weighted voting for Origin, with optional online
// adaptation (§III-C/D).
package host

import (
	"fmt"

	"origin/internal/ensemble"
	"origin/internal/obs"
	"origin/internal/sensor"
)

// Aggregation selects how the host fuses sensor opinions into the final
// per-slot classification.
type Aggregation int

const (
	// AggLatest uses only the most recent fresh classification from any
	// sensor — no ensemble. This is what a recall-less scheduler (ER-r or
	// AAS alone) gives the application.
	AggLatest Aggregation = iota
	// AggMajority performs naive majority voting over all sensors' current
	// opinions (fresh or recalled) — the AASR and baseline aggregation.
	AggMajority
	// AggWeighted performs confidence-matrix weighted majority voting —
	// Origin's aggregation.
	AggWeighted
	// AggAccuracy performs static accuracy-weighted voting — the §III-C
	// strawman, provided for the weighting ablation.
	AggAccuracy
)

// String names the aggregation for tables.
func (a Aggregation) String() string {
	switch a {
	case AggLatest:
		return "latest"
	case AggMajority:
		return "majority"
	case AggWeighted:
		return "confidence-weighted"
	case AggAccuracy:
		return "accuracy-weighted"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// Config assembles a host device.
type Config struct {
	// Sensors is the number of nodes; Classes the number of activities.
	Sensors, Classes int
	// Recall enables the recall store: sensors that did not report this
	// slot still vote with their remembered classification.
	Recall bool
	// Agg selects the aggregation rule.
	Agg Aggregation
	// Matrix is the confidence matrix (required for AggWeighted). The host
	// owns it and mutates it when Adaptive is set.
	Matrix *ensemble.Matrix
	// Adaptive folds every received confidence score into the matrix with
	// the moving average — the Fig. 6 personalisation mechanism.
	Adaptive bool
	// AccTable is the static per-(sensor, class) accuracy table (required
	// for AggAccuracy).
	AccTable [][]float64
	// StaleLimit, if positive, drops recalled votes older than this many
	// slots. 0 keeps them indefinitely (the paper's aggressive recall).
	StaleLimit int
	// Quorum, if positive, is the minimum number of valid votes an ensemble
	// aggregation needs before it classifies; with fewer the host abstains
	// (Classify returns -1) instead of trusting a lone, possibly stale
	// opinion — the graceful-degradation gate for runs with dying nodes.
	// 0 disables the gate. For AggLatest only Quorum <= 1 is meaningful
	// (there is never more than one opinion).
	Quorum int
}

type recallEntry struct {
	class      int
	confidence float64
	slot       int
	valid      bool
}

// Device is the host device state machine.
type Device struct {
	cfg  Config
	last []recallEntry

	anticipated   int
	lastFresh     recallEntry
	received      int
	adaptsApplied int
	obs           *obs.Telemetry
}

// New builds a host device from cfg, validating aggregation requirements.
func New(cfg Config) *Device {
	if cfg.Sensors <= 0 || cfg.Classes <= 0 {
		panic(fmt.Sprintf("host: invalid geometry sensors=%d classes=%d", cfg.Sensors, cfg.Classes))
	}
	if cfg.Agg == AggWeighted && cfg.Matrix == nil {
		panic("host: AggWeighted requires a confidence matrix")
	}
	if cfg.Agg == AggAccuracy && cfg.AccTable == nil {
		panic("host: AggAccuracy requires an accuracy table")
	}
	if cfg.Quorum < 0 {
		panic(fmt.Sprintf("host: negative quorum %d", cfg.Quorum))
	}
	if cfg.Quorum > 1 && cfg.Agg == AggLatest {
		panic(fmt.Sprintf("host: quorum %d unsatisfiable with latest-only aggregation", cfg.Quorum))
	}
	return &Device{
		cfg:         cfg,
		last:        make([]recallEntry, cfg.Sensors),
		anticipated: -1,
	}
}

// Attach routes the host's vote and adaptation events into the given
// run telemetry. A nil telemetry detaches.
func (d *Device) Attach(t *obs.Telemetry) { d.obs = t }

// Anticipated returns the host's anticipated activity: the class of the
// most recent received classification, or -1 before any exists.
func (d *Device) Anticipated() int { return d.anticipated }

// Matrix returns the (possibly adapted) confidence matrix, or nil.
func (d *Device) Matrix() *ensemble.Matrix { return d.cfg.Matrix }

// Received returns how many results the host has accepted.
func (d *Device) Received() int { return d.received }

// AdaptsApplied returns how many online matrix updates have run.
func (d *Device) AdaptsApplied() int { return d.adaptsApplied }

// Observe ingests one sensor result. It refreshes the recall store, moves
// the anticipation to the classified activity, and (when Adaptive) updates
// the confidence matrix with the reported score.
func (d *Device) Observe(res *sensor.Result) {
	if res == nil {
		return
	}
	if res.Sensor < 0 || res.Sensor >= d.cfg.Sensors {
		panic(fmt.Sprintf("host: result from unknown sensor %d", res.Sensor))
	}
	if res.Class < 0 || res.Class >= d.cfg.Classes {
		panic(fmt.Sprintf("host: result class %d out of range", res.Class))
	}
	e := recallEntry{class: res.Class, confidence: res.Confidence, slot: res.Slot, valid: true}
	d.last[res.Sensor] = e
	d.lastFresh = e
	d.anticipated = res.Class
	d.received++
}

// NoteFinal records the system's final (ensemble) classification for a
// slot, moving the anticipation to it. Individual sensor results also move
// the anticipation (Observe); NoteFinal lets the fused opinion override a
// lone sensor's, which breaks the self-reinforcing loop where a weak sensor
// keeps nominating itself for the activity it keeps (mis)detecting.
func (d *Device) NoteFinal(class int) {
	if class >= 0 && class < d.cfg.Classes {
		d.anticipated = class
	}
}

// Adapt folds one successful classification round into the confidence
// matrix (no-op unless the host is Adaptive with a matrix). The paper
// updates the matrix "after each successful classification" with the
// confidence score the sensor transmitted; the host has no ground truth, so
// the final ensemble decision serves as the pseudo-label: a vote that
// agrees with the consensus reinforces its (sensor, class) weight with its
// transmitted confidence, and a dissenting vote pulls its weight toward
// zero. Weights therefore converge to precision-weighted confidence — the
// personalisation mechanism behind Fig. 6.
func (d *Device) Adapt(slot, final int) {
	if !d.cfg.Adaptive || d.cfg.Matrix == nil || final < 0 {
		return
	}
	before := d.adaptsApplied
	for _, v := range d.votes(slot) {
		if v.Class == final {
			d.cfg.Matrix.Update(v.Sensor, v.Class, v.Confidence)
		} else {
			d.cfg.Matrix.Update(v.Sensor, v.Class, 0)
		}
		d.adaptsApplied++
	}
	d.obs.NoteAdaptations(d.adaptsApplied - before)
}

// votes assembles the ensemble inputs for the given slot: every sensor's
// most recent opinion, marked fresh if it was produced in this slot, and
// filtered by StaleLimit when recall ageing is enabled.
func (d *Device) votes(slot int) []ensemble.Vote {
	var vs []ensemble.Vote
	for s, e := range d.last {
		if !e.valid {
			continue
		}
		if !d.cfg.Recall && e.slot != slot {
			continue
		}
		if d.cfg.StaleLimit > 0 && slot-e.slot > d.cfg.StaleLimit {
			continue
		}
		vs = append(vs, ensemble.Vote{
			Sensor:     s,
			Class:      e.class,
			Confidence: e.confidence,
			Fresh:      e.slot == slot,
			Age:        slot - e.slot,
		})
	}
	return vs
}

// Classify produces the system's final classification for a slot, or -1 if
// no opinion is available yet.
func (d *Device) Classify(slot int) int {
	if d.cfg.Agg == AggLatest {
		if !d.lastFresh.valid {
			return -1
		}
		if d.cfg.StaleLimit > 0 && slot-d.lastFresh.slot > d.cfg.StaleLimit {
			return -1
		}
		if d.lastFresh.slot == slot {
			d.obs.NoteVotes(1, 0)
		} else {
			d.obs.NoteVotes(0, 1)
		}
		return d.lastFresh.class
	}
	vs := d.votes(slot)
	fresh := 0
	for _, v := range vs {
		if v.Fresh {
			fresh++
		}
	}
	d.obs.NoteVotes(fresh, len(vs)-fresh)
	if d.cfg.Quorum > 0 && len(vs) < d.cfg.Quorum {
		d.obs.NoteQuorumAbstention()
		return -1
	}
	switch d.cfg.Agg {
	case AggMajority:
		return ensemble.MajorityVote(vs, d.cfg.Classes)
	case AggWeighted:
		return d.cfg.Matrix.WeightedVote(vs, d.cfg.Classes)
	case AggAccuracy:
		return ensemble.AccuracyWeightedVote(vs, d.cfg.AccTable, d.cfg.Classes)
	default:
		panic(fmt.Sprintf("host: unknown aggregation %d", d.cfg.Agg))
	}
}
