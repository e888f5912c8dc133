// Package energy models the power side of an energy-harvesting sensor node:
// RF (WiFi) harvesting traces, a capacitor energy store, and the accounting
// used by the intermittent-execution model in internal/nvp.
//
// The paper replays a real WiFi harvesting trace recorded in an office
// (ReSiRCA, HPCA 2020); that trace is not available, so this package
// generates a statistically similar substitute: a bursty on/off traffic
// process (WiFi energy arrives when nearby traffic flows) modulated by a
// slow office-activity envelope, with lognormal per-tick jitter and
// occasional dead periods. A CSV codec lets a real trace be dropped in
// unchanged.
//
// Units are SI throughout: watts, joules, seconds.
package energy

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// Trace is a harvested-power time series sampled at a fixed tick interval.
type Trace struct {
	// Tick is the sample interval in seconds.
	Tick float64
	// Power holds the harvested power in watts at each tick.
	Power []float64
}

// Len returns the number of ticks.
func (t *Trace) Len() int { return len(t.Power) }

// At returns the power at tick i, wrapping around so that traces can be
// replayed cyclically over simulations longer than the recording.
func (t *Trace) At(i int) float64 {
	if len(t.Power) == 0 {
		return 0
	}
	return t.Power[i%len(t.Power)]
}

// Mean returns the average harvested power in watts.
func (t *Trace) Mean() float64 {
	if len(t.Power) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range t.Power {
		s += p
	}
	return s / float64(len(t.Power))
}

// Peak returns the maximum power in the trace.
func (t *Trace) Peak() float64 {
	m := 0.0
	for _, p := range t.Power {
		if p > m {
			m = p
		}
	}
	return m
}

// Scale returns a copy of the trace with all powers multiplied by k.
// Sensors at different body locations harvest different amounts (antenna
// orientation, body shadowing); the simulator gives each sensor a scaled
// view of the shared office trace.
func (t *Trace) Scale(k float64) *Trace {
	out := &Trace{Tick: t.Tick, Power: make([]float64, len(t.Power))}
	for i, p := range t.Power {
		out.Power[i] = p * k
	}
	return out
}

// WiFiTraceConfig parameterises the synthetic office WiFi harvesting trace.
type WiFiTraceConfig struct {
	// Tick is the sample interval in seconds.
	Tick float64
	// Duration is the trace length in seconds.
	Duration float64
	// BasePower is the always-present ambient RF floor in watts.
	BasePower float64
	// BurstPower is the mean additional power while WiFi traffic is bursting.
	BurstPower float64
	// BurstOnMean and BurstOffMean are the mean dwell times (seconds) of the
	// bursting / quiet states of the traffic process.
	BurstOnMean, BurstOffMean float64
	// DeadMean is the mean interval (seconds) between dead periods
	// (e.g. the office emptying out); DeadDuration is their mean length.
	DeadMean, DeadDuration float64
	// Jitter is the lognormal sigma applied per tick.
	Jitter float64
	// EnvelopePeriod is the office-activity modulation period in seconds.
	EnvelopePeriod float64
	// EnvelopeDepth in [0,1) is the modulation depth.
	EnvelopeDepth float64
	// Seed drives determinism.
	Seed int64
}

// DefaultWiFiTraceConfig returns the configuration calibrated so the
// paper's Fig. 1 completion statistics reproduce (≈10% of naive concurrent
// attempts see at least one completion; ≈28% of RR3 attempts complete):
// mean power ≈ 90 µW, bursty, with multi-second quiet gaps.
func DefaultWiFiTraceConfig(duration float64, seed int64) WiFiTraceConfig {
	return WiFiTraceConfig{
		Tick:           0.01,
		Duration:       duration,
		BasePower:      25e-6,
		BurstPower:     260e-6,
		BurstOnMean:    1.2,
		BurstOffMean:   3.0,
		DeadMean:       120,
		DeadDuration:   15,
		Jitter:         0.35,
		EnvelopePeriod: 600,
		EnvelopeDepth:  0.35,
		Seed:           seed,
	}
}

// GenerateWiFiTrace synthesises a harvesting trace per cfg.
func GenerateWiFiTrace(cfg WiFiTraceConfig) *Trace {
	if cfg.Tick <= 0 || cfg.Duration <= 0 {
		panic(fmt.Sprintf("energy: invalid trace geometry tick=%v duration=%v", cfg.Tick, cfg.Duration))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(cfg.Duration / cfg.Tick)
	tr := &Trace{Tick: cfg.Tick, Power: make([]float64, n)}

	bursting := false
	dwell := sampleExp(rng, cfg.BurstOffMean)
	deadUntil := -1.0
	nextDead := sampleExp(rng, cfg.DeadMean)

	for i := 0; i < n; i++ {
		t := float64(i) * cfg.Tick

		// Dead-period process.
		if t >= nextDead && t > deadUntil {
			deadUntil = t + sampleExp(rng, cfg.DeadDuration)
			nextDead = deadUntil + sampleExp(rng, cfg.DeadMean)
		}
		if t < deadUntil {
			tr.Power[i] = cfg.BasePower * 0.1
			continue
		}

		// Burst state machine.
		dwell -= cfg.Tick
		if dwell <= 0 {
			bursting = !bursting
			if bursting {
				dwell = sampleExp(rng, cfg.BurstOnMean)
			} else {
				dwell = sampleExp(rng, cfg.BurstOffMean)
			}
		}

		p := cfg.BasePower
		if bursting {
			p += cfg.BurstPower
		}
		// Slow office-activity envelope.
		if cfg.EnvelopePeriod > 0 {
			env := 1 + cfg.EnvelopeDepth*math.Sin(2*math.Pi*t/cfg.EnvelopePeriod)
			p *= env
		}
		// Per-tick lognormal jitter.
		if cfg.Jitter > 0 {
			p *= math.Exp(cfg.Jitter*rng.NormFloat64() - cfg.Jitter*cfg.Jitter/2)
		}
		tr.Power[i] = p
	}
	return tr
}

func sampleExp(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() * mean
}

// Offset returns a copy of the trace with k watts added to every tick —
// how a hybrid (battery-assisted) supply is modelled: the harvester's
// intermittent profile rides on a constant battery trickle.
func (t *Trace) Offset(k float64) *Trace {
	out := &Trace{Tick: t.Tick, Power: make([]float64, len(t.Power))}
	for i, p := range t.Power {
		v := p + k
		if v < 0 {
			v = 0
		}
		out.Power[i] = v
	}
	return out
}

// WriteCSV writes the trace as "seconds,watts" rows preceded by a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "time_s,power_w\n"); err != nil {
		return fmt.Errorf("energy: write csv header: %w", err)
	}
	for i, p := range t.Power {
		if _, err := fmt.Fprintf(bw, "%.4f,%.9g\n", float64(i)*t.Tick, p); err != nil {
			return fmt.Errorf("energy: write csv row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (or any two-column
// time,power CSV with a constant sample interval).
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var times, powers []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || line == 1 && strings.HasPrefix(text, "time") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("energy: csv line %d: want 2 columns, got %d", line, len(parts))
		}
		tv, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("energy: csv line %d time: %w", line, err)
		}
		pv, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("energy: csv line %d power: %w", line, err)
		}
		times = append(times, tv)
		powers = append(powers, pv)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("energy: csv scan: %w", err)
	}
	if len(powers) < 2 {
		return nil, fmt.Errorf("energy: csv has %d samples, need at least 2", len(powers))
	}
	tick := times[1] - times[0]
	if tick <= 0 {
		return nil, fmt.Errorf("energy: csv sample interval %v is not positive", tick)
	}
	return &Trace{Tick: tick, Power: powers}, nil
}

// SaveCSVFile writes the trace to path.
func (t *Trace) SaveCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("energy: save %s: %w", path, err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCSVFile reads a trace from path.
func LoadCSVFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("energy: load %s: %w", path, err)
	}
	defer f.Close()
	return ReadCSV(f)
}
