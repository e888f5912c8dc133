// Package nvp models a non-volatile processor (NVP) executing DNN inference
// on harvested energy — the compute component the paper adopts from ReSiRCA
// (HPCA 2020) and the NVP line of work (IEEE Micro 2015).
//
// The defining property of an NVP is forward progress across power
// emergencies: when the energy store browns out mid-inference, architectural
// state is checkpointed into non-volatile memory and execution resumes where
// it left off once energy returns. The package also provides a volatile
// ablation in which a brown-out discards all progress, which is how the
// reproduction quantifies what NVP buys the system.
//
// Work is measured in MACs (multiply-accumulates); energy and time derive
// from a MAC rate and a per-MAC energy, keeping the model consistent with
// internal/dnn's MAC accounting.
package nvp

import (
	"fmt"

	"origin/internal/energy"
)

// Task is one unit of intermittent work: an inference of a known MAC count,
// optionally structured into segments (layer boundaries).
type Task struct {
	// TotalMACs is the work required, including any fixed per-inference
	// overhead expressed in MAC-equivalents.
	TotalMACs float64
	// Boundaries, if non-empty, holds the cumulative MAC counts at which
	// the computation reaches a committable state (the end of each DNN
	// layer). Under GranularityLayer, progress inside an unfinished segment
	// is lost at a power emergency — only completed layers checkpoint,
	// which is how SONIC/TAILS-style intermittent inference engines behave
	// (the paper's reference [7]).
	Boundaries []float64

	done float64
}

// NewTask returns an unstructured task of the given size: progress is
// committable at any point (idealised word-granular checkpointing).
func NewTask(totalMACs float64) *Task {
	if totalMACs <= 0 {
		panic(fmt.Sprintf("nvp: invalid task size %v MACs", totalMACs))
	}
	return &Task{TotalMACs: totalMACs}
}

// NewLayerTask returns a task structured as the given per-layer MAC counts
// plus a fixed up-front overhead (committed with the first layer).
// Zero-MAC layers are skipped.
func NewLayerTask(layerMACs []float64, overheadMACs float64) *Task {
	total := overheadMACs
	var bounds []float64
	for _, m := range layerMACs {
		if m < 0 {
			panic(fmt.Sprintf("nvp: negative layer MACs %v", m))
		}
		if m == 0 {
			continue
		}
		total += m
		bounds = append(bounds, total)
	}
	if total <= 0 {
		panic("nvp: empty layer task")
	}
	if len(bounds) == 0 || bounds[len(bounds)-1] != total {
		bounds = append(bounds, total)
	}
	return &Task{TotalMACs: total, Boundaries: bounds}
}

// lastBoundary returns the highest committable progress not exceeding done.
func (t *Task) lastBoundary() float64 {
	last := 0.0
	for _, b := range t.Boundaries {
		if b <= t.done {
			last = b
		} else {
			break
		}
	}
	return last
}

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.done >= t.TotalMACs }

// Progress returns completion in [0, 1].
func (t *Task) Progress() float64 {
	p := t.done / t.TotalMACs
	if p > 1 {
		return 1
	}
	return p
}

// Config describes the processor's speed and power characteristics.
type Config struct {
	// MACsPerSecond is compute throughput while powered.
	MACsPerSecond float64
	// EnergyPerMAC is joules per MAC; active power is the product of the
	// two, keeping energy-to-finish independent of execution speed.
	EnergyPerMAC float64
	// CheckpointJ is the energy drawn (best-effort) to checkpoint state at a
	// power emergency. NVPs built on FRAM/ReRAM make this tiny.
	CheckpointJ float64
	// RestoreJ is the energy drawn to restore state when resuming.
	RestoreJ float64
	// Volatile, if true, models a conventional processor: every power
	// emergency discards all task progress (the ablation baseline).
	Volatile bool
	// Granularity selects what survives a power emergency on the NVP.
	Granularity Granularity
	// ResumeThresholdJ is the stored-energy level required to resume after
	// a brown-out (beyond restore cost + one tick of compute). EH nodes
	// gate their regulators on a capacitor-voltage threshold for exactly
	// this reason: without hysteresis, a node that resumes the instant a
	// trickle arrives burns it on work that a coarse-grained checkpoint
	// then rolls back — a livelock. 0 disables the extra threshold.
	ResumeThresholdJ float64
}

// Granularity is the checkpoint granularity of the non-volatile state.
type Granularity int

const (
	// GranularityContinuous is the idealised NVP: any amount of progress
	// survives a brown-out (word-granular non-volatile accumulators).
	GranularityContinuous Granularity = iota
	// GranularityLayer persists progress only at task segment boundaries
	// (completed DNN layers); work inside an unfinished layer is redone.
	GranularityLayer
)

// DefaultConfig returns the NVP model used throughout the reproduction,
// sized like a sub-mW inference accelerator: 200 kMAC/s at 2 nJ/MAC
// (active power 0.4 mW).
func DefaultConfig() Config {
	return Config{
		MACsPerSecond: 200e3,
		EnergyPerMAC:  2e-9,
		CheckpointJ:   0.4e-6,
		RestoreJ:      0.4e-6,
	}
}

// ActivePowerW returns the compute power draw implied by the config.
func (c Config) ActivePowerW() float64 { return c.MACsPerSecond * c.EnergyPerMAC }

// Stats is cumulative processor telemetry.
type Stats struct {
	// Emergencies counts brown-outs encountered mid-task.
	Emergencies int
	// Restores counts successful resumes after a brown-out.
	Restores int
	// Completed counts finished tasks.
	Completed int
	// Aborted counts tasks abandoned before completion (deadline misses).
	Aborted int
	// MACsExecuted is total useful work performed.
	MACsExecuted float64
	// MACsWasted is work discarded by volatile restarts.
	MACsWasted float64
}

// Processor executes one task at a time against a capacitor energy store.
type Processor struct {
	cfg    Config
	task   *Task
	paused bool
	stats  Stats
}

// NewProcessor returns an idle processor with the given configuration.
func NewProcessor(cfg Config) *Processor {
	if cfg.MACsPerSecond <= 0 || cfg.EnergyPerMAC <= 0 {
		panic(fmt.Sprintf("nvp: invalid config %+v", cfg))
	}
	return &Processor{cfg: cfg}
}

// Busy reports whether a task is loaded and unfinished.
func (p *Processor) Busy() bool { return p.task != nil && !p.task.Done() }

// Stats returns cumulative telemetry.
func (p *Processor) Stats() Stats { return p.stats }

// Start loads a new task, aborting any unfinished previous one.
func (p *Processor) Start(t *Task) {
	if p.task != nil && !p.task.Done() {
		p.stats.Aborted++
	}
	p.task = t
	p.paused = false
}

// Abort discards the current task (e.g. its slot deadline passed).
func (p *Processor) Abort() {
	if p.task != nil && !p.task.Done() {
		p.stats.Aborted++
	}
	p.task = nil
	p.paused = false
}

// Step advances execution by dt seconds, drawing energy from c.
// It returns true exactly once per task, on the step that completes it.
func (p *Processor) Step(c *energy.Capacitor, dt float64) bool {
	if p.task == nil || p.task.Done() || dt <= 0 {
		return false
	}
	if p.paused {
		// Resume only when the store can fund the restore plus at least one
		// tick of execution — and, if configured, the turn-on threshold —
		// hysteresis against resume/brown-out thrash.
		need := p.cfg.RestoreJ + p.cfg.ActivePowerW()*dt
		if need < p.cfg.ResumeThresholdJ {
			need = p.cfg.ResumeThresholdJ
		}
		if c.Available() < need {
			return false
		}
		if !c.Draw(p.cfg.RestoreJ) {
			return false
		}
		p.stats.Restores++
		p.paused = false
	}

	remainingMACs := p.task.TotalMACs - p.task.done
	wantMACs := p.cfg.MACsPerSecond * dt
	if wantMACs > remainingMACs {
		wantMACs = remainingMACs
	}
	needJ := wantMACs * p.cfg.EnergyPerMAC
	gotJ := c.DrawUpTo(needJ)
	doneMACs := wantMACs
	if gotJ < needJ {
		doneMACs = gotJ / p.cfg.EnergyPerMAC
	}
	p.task.done += doneMACs
	p.stats.MACsExecuted += doneMACs

	if p.task.Done() {
		p.stats.Completed++
		return true
	}
	if gotJ < needJ {
		// Power emergency mid-task.
		p.stats.Emergencies++
		switch {
		case p.cfg.Volatile:
			p.stats.MACsWasted += p.task.done
			p.task.done = 0
		case p.cfg.Granularity == GranularityLayer && len(p.task.Boundaries) > 0:
			// Only completed layers are checkpointed: roll partial-layer
			// work back to the last boundary.
			committed := p.task.lastBoundary()
			p.stats.MACsWasted += p.task.done - committed
			p.task.done = committed
			c.DrawUpTo(p.cfg.CheckpointJ)
		default:
			// Best-effort checkpoint; on an NVP the state write is so small
			// that failing to fund it fully is indistinguishable from
			// funding it, so this is modelled as DrawUpTo.
			c.DrawUpTo(p.cfg.CheckpointJ)
		}
		p.paused = true
	}
	return false
}
