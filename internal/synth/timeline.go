package synth

import (
	"fmt"
	"math/rand"
)

// Segment is a contiguous run of one activity in a timeline.
type Segment struct {
	// Activity is the class id.
	Activity int
	// Slots is the segment length in scheduler slots.
	Slots int
}

// Timeline is a slot-by-slot activity stream with the temporal continuity
// the paper's §III-A relies on: activities persist for many consecutive
// slots, so "anticipate the next activity to be the current one" is right
// most of the time and recalled stale classifications remain representative.
type Timeline struct {
	// PerSlot holds the true activity class of every slot.
	PerSlot []int
	// Segments is the run-length encoded form of PerSlot.
	Segments []Segment
}

// Len returns the number of slots.
func (t *Timeline) Len() int { return len(t.PerSlot) }

// TimelineConfig parameterises activity stream generation.
type TimelineConfig struct {
	// Slots is the total stream length.
	Slots int
	// MeanSegment is the mean activity duration in slots. Durations are
	// geometric with this mean, floored at MinSegment.
	MeanSegment int
	// MinSegment is the minimum activity duration in slots.
	MinSegment int
	// Seed makes the stream deterministic.
	Seed int64
}

// DefaultTimelineConfig returns the stream parameters used by the
// experiments: with 250 ms scheduler slots, a mean segment of 240 slots is
// ≈60 s of sustained activity, matching the roughly one-minute recording
// sessions of the MHEALTH protocol and far longer than one RR12 cycle
// (3 s) — the regime the paper's recall mechanism assumes.
func DefaultTimelineConfig(slots int, seed int64) TimelineConfig {
	return TimelineConfig{Slots: slots, MeanSegment: 240, MinSegment: 60, Seed: seed}
}

// GenerateTimeline builds an activity stream over p's classes. Successive
// segments always switch class (self-transitions are expressed through
// segment length, not repeated segments).
func GenerateTimeline(p *Profile, cfg TimelineConfig) *Timeline {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("synth: invalid timeline slots %d", cfg.Slots))
	}
	if cfg.MeanSegment <= cfg.MinSegment {
		panic(fmt.Sprintf("synth: mean segment %d must exceed min %d", cfg.MeanSegment, cfg.MinSegment))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tl := &Timeline{PerSlot: make([]int, 0, cfg.Slots)}
	current := rng.Intn(p.NumClasses())
	for len(tl.PerSlot) < cfg.Slots {
		// Geometric duration with the configured mean above the floor.
		mean := float64(cfg.MeanSegment - cfg.MinSegment)
		dur := cfg.MinSegment + int(rng.ExpFloat64()*mean)
		if remaining := cfg.Slots - len(tl.PerSlot); dur > remaining {
			dur = remaining
		}
		tl.Segments = append(tl.Segments, Segment{Activity: current, Slots: dur})
		for i := 0; i < dur; i++ {
			tl.PerSlot = append(tl.PerSlot, current)
		}
		// Switch to a different activity.
		if p.NumClasses() > 1 {
			next := rng.Intn(p.NumClasses() - 1)
			if next >= current {
				next++
			}
			current = next
		}
	}
	return tl
}

// MarkovTimelineConfig parameterises a structured activity stream: segment
// durations as in TimelineConfig, but the *next* activity is drawn from a
// per-activity transition distribution instead of uniformly — people step
// from walking to climbing far more often than from cycling to jumping.
type MarkovTimelineConfig struct {
	// Slots, MeanSegment, MinSegment and Seed as in TimelineConfig.
	Slots       int
	MeanSegment int
	MinSegment  int
	Seed        int64
	// Transitions[a][b] is the unnormalised weight of switching from
	// activity a to activity b. Self-weights are ignored (segments always
	// switch); rows must contain at least one positive off-diagonal weight.
	Transitions [][]float64
}

// DailyRoutineTransitions returns a plausible transition structure for the
// MHEALTH-style activity sets: locomotion activities interchange freely,
// climbing follows walking, and high-intensity activities (running,
// jogging, jumping) cluster. Unknown activity names fall back to uniform.
func DailyRoutineTransitions(p *Profile) [][]float64 {
	n := p.NumClasses()
	w := make([][]float64, n)
	for a := range w {
		w[a] = make([]float64, n)
		for b := range w[a] {
			if a != b {
				w[a][b] = 1
			}
		}
	}
	boost := func(from, to string, k float64) {
		a, b := p.ActivityIndex(from), p.ActivityIndex(to)
		if a >= 0 && b >= 0 {
			w[a][b] = k
		}
	}
	boost("Walking", "Climbing", 5)
	boost("Climbing", "Walking", 5)
	boost("Walking", "Jogging", 3)
	boost("Jogging", "Running", 4)
	boost("Running", "Jogging", 4)
	boost("Jogging", "Walking", 3)
	boost("Jumping", "Running", 3)
	boost("Running", "Jumping", 2)
	boost("Cycling", "Walking", 3)
	boost("Walking", "Cycling", 2)
	return w
}

// GenerateMarkovTimeline builds an activity stream whose switches follow
// cfg.Transitions.
func GenerateMarkovTimeline(p *Profile, cfg MarkovTimelineConfig) *Timeline {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("synth: invalid timeline slots %d", cfg.Slots))
	}
	if cfg.MeanSegment <= cfg.MinSegment {
		panic(fmt.Sprintf("synth: mean segment %d must exceed min %d", cfg.MeanSegment, cfg.MinSegment))
	}
	n := p.NumClasses()
	if len(cfg.Transitions) != n {
		panic(fmt.Sprintf("synth: transition matrix has %d rows, want %d", len(cfg.Transitions), n))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tl := &Timeline{PerSlot: make([]int, 0, cfg.Slots)}
	current := rng.Intn(n)
	for len(tl.PerSlot) < cfg.Slots {
		mean := float64(cfg.MeanSegment - cfg.MinSegment)
		dur := cfg.MinSegment + int(rng.ExpFloat64()*mean)
		if remaining := cfg.Slots - len(tl.PerSlot); dur > remaining {
			dur = remaining
		}
		tl.Segments = append(tl.Segments, Segment{Activity: current, Slots: dur})
		for i := 0; i < dur; i++ {
			tl.PerSlot = append(tl.PerSlot, current)
		}
		current = drawTransition(rng, cfg.Transitions[current], current)
	}
	return tl
}

// drawTransition samples a successor ≠ current from the row's off-diagonal
// weights.
func drawTransition(rng *rand.Rand, row []float64, current int) int {
	total := 0.0
	for b, w := range row {
		if b == current || w <= 0 {
			continue
		}
		total += w
	}
	if total <= 0 {
		panic(fmt.Sprintf("synth: transition row %d has no positive off-diagonal weight", current))
	}
	x := rng.Float64() * total
	for b, w := range row {
		if b == current || w <= 0 {
			continue
		}
		x -= w
		if x <= 0 {
			return b
		}
	}
	// Floating-point residue: return the last eligible successor.
	for b := len(row) - 1; b >= 0; b-- {
		if b != current && row[b] > 0 {
			return b
		}
	}
	panic("synth: unreachable transition draw")
}

// MixTimelineConfig parameterises an activity stream whose class balance
// follows an explicit weight vector — the diurnal activity-mix knob of a
// scenario phase (a night phase is almost all low-intensity classes, a
// morning rush is locomotion-heavy).
type MixTimelineConfig struct {
	// Slots, MeanSegment, MinSegment and Seed as in TimelineConfig.
	Slots       int
	MeanSegment int
	MinSegment  int
	Seed        int64
	// Mix[c] is the unnormalised weight of class c. Len must equal the
	// profile's class count and at least two classes must have positive
	// weight (segments always switch class).
	Mix []float64
}

// GenerateMixTimeline builds an activity stream whose segment classes are
// drawn from cfg.Mix (excluding the current class at each switch). It is the
// stationary-mix counterpart of GenerateMarkovTimeline: every row of the
// implied transition matrix is the same weight vector.
func GenerateMixTimeline(p *Profile, cfg MixTimelineConfig) *Timeline {
	if cfg.Slots <= 0 {
		panic(fmt.Sprintf("synth: invalid timeline slots %d", cfg.Slots))
	}
	if cfg.MeanSegment <= cfg.MinSegment {
		panic(fmt.Sprintf("synth: mean segment %d must exceed min %d", cfg.MeanSegment, cfg.MinSegment))
	}
	n := p.NumClasses()
	if len(cfg.Mix) != n {
		panic(fmt.Sprintf("synth: mix has %d weights, want %d classes", len(cfg.Mix), n))
	}
	positive := 0
	for c, w := range cfg.Mix {
		if w < 0 {
			panic(fmt.Sprintf("synth: negative mix weight %v for class %d", w, c))
		}
		if w > 0 {
			positive++
		}
	}
	if positive < 2 {
		panic("synth: mix needs at least two positive weights")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tl := &Timeline{PerSlot: make([]int, 0, cfg.Slots)}
	current := drawTransition(rng, cfg.Mix, -1)
	for len(tl.PerSlot) < cfg.Slots {
		mean := float64(cfg.MeanSegment - cfg.MinSegment)
		dur := cfg.MinSegment + int(rng.ExpFloat64()*mean)
		if remaining := cfg.Slots - len(tl.PerSlot); dur > remaining {
			dur = remaining
		}
		tl.Segments = append(tl.Segments, Segment{Activity: current, Slots: dur})
		for i := 0; i < dur; i++ {
			tl.PerSlot = append(tl.PerSlot, current)
		}
		current = drawTransition(rng, cfg.Mix, current)
	}
	return tl
}
