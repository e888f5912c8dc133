package scenario

import (
	"fmt"

	"origin/internal/experiments"
	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/synth"
)

// lineageGen generates one lineage's round payloads — the single source of
// truth shared by the live engine and the serial replayer. A lineage's
// payload stream is a pure function of (spec, lineagePlan) and the order of
// enterPhase/next calls; neither transport retries, reconnects, resumes,
// shedding nor concurrency ever touches it, which is what makes live runs
// replayable.
//
// The per-sensor signal is one continuous synth.SensorStream per location,
// integrating gait phase across rounds AND phases; drift swaps the wearer's
// gait parameters mid-stream (SensorStream.SetUser) without perturbing the
// RNG schedule. Sensors report in the loadgen rotation — round k's j-th
// reporter is (k·n + j) mod NumLocations with k counted from lineage birth.
type lineageGen struct {
	spec    *Spec
	profile *synth.Profile
	lp      lineagePlan

	user    *synth.User
	sensors *loadgen.SensorFrames

	tl         *synth.Timeline // current phase's truth timeline
	round      int             // rounds completed since birth (the stream slot index)
	phaseRound int             // rounds completed in the current phase
	drifted    bool            // true once the first drift epoch has applied
}

func newLineageGen(spec *Spec, profile *synth.Profile, lp lineagePlan) *lineageGen {
	g := &lineageGen{spec: spec, profile: profile, lp: lp, user: synth.NewUser(lp.Wearer)}
	// loadgen's sensor-stream seed layout (lp.Seed+3+s) stays disjoint from
	// the transport draw (+1) and backoff jitter (+6).
	g.sensors = loadgen.NewSensorFrames(profile, g.user, lp.Seed)
	return g
}

// enterPhase applies phase-entry drift (never at the birth phase — a fresh
// wearer has nothing to drift from) and builds the phase's truth timeline.
func (g *lineageGen) enterPhase(p int) {
	ph := &g.spec.Phases[p]
	if p > g.lp.Born && ph.Drift > 0 {
		g.user = g.user.Drifted(int64(p), ph.Drift)
		for _, st := range g.sensors.Streams {
			st.SetUser(g.user)
		}
		g.drifted = true
	}
	seed := g.lp.Seed + 1_000_003*int64(p+1)
	if ph.Mix == nil {
		g.tl = synth.GenerateTimeline(g.profile, synth.TimelineConfig{
			Slots: ph.Rounds, MeanSegment: ph.MeanSegment, MinSegment: ph.MinSegment, Seed: seed,
		})
	} else {
		g.tl = synth.GenerateMixTimeline(g.profile, synth.MixTimelineConfig{
			Slots: ph.Rounds, MeanSegment: ph.MeanSegment, MinSegment: ph.MinSegment, Seed: seed,
			Mix: ph.Mix,
		})
	}
	g.phaseRound = 0
}

// truth returns the current round's ground-truth class (valid until next).
func (g *lineageGen) truth() int { return g.tl.PerSlot[g.phaseRound] }

// slot returns the server-side round index the next payload classifies as
// (rounds since birth — sessions are born with the lineage).
func (g *lineageGen) slot() int { return g.round }

// advance moves past the current round after its payload has been built.
func (g *lineageGen) advance() {
	g.round++
	g.phaseRound++
}

// frames builds the current round's encoded stream frames (stream lineages
// only) in send order; the last carries end-of-round. The caller owns the
// returned slice — resume re-sends reuse these exact bytes, so a disconnect
// never re-invokes the generator.
func (g *lineageGen) frames() ([]loadgen.EncodedFrame, error) {
	frames, err := g.sensors.Round(g.round, g.spec.SensorsPerRound, g.spec.StreamHop, g.truth())
	if err != nil {
		return nil, fmt.Errorf("scenario: lineage %d: %w", g.lp.Index, err)
	}
	g.advance()
	return frames, nil
}

// request builds the current round's HTTP classify payload (window mode:
// each reporting sensor ships a full window of its continuous stream).
func (g *lineageGen) request() serve.ClassifyRequest {
	truth := g.truth()
	n := g.spec.SensorsPerRound
	var req serve.ClassifyRequest
	for j := 0; j < n; j++ {
		sensorID := (g.round*n + j) % synth.NumLocations
		samples := g.sensors.Streams[sensorID].Next(truth, experiments.Window, nil)
		rows := make([][]float64, synth.Channels)
		for c := 0; c < synth.Channels; c++ {
			rows[c] = samples[c*experiments.Window : (c+1)*experiments.Window]
		}
		req.Windows = append(req.Windows, serve.Window{Sensor: sensorID, Samples: rows})
	}
	g.advance()
	return req
}
