// Package fault is the deterministic fault-injection layer of the
// simulator. The paper motivates Origin partly by "intermittent
// coordination failures" — nodes or the fusing device lacking energy at
// the moment communication is required; this package makes those failures
// (and harsher ones: permanent node death, reboots, harvester outages)
// injectable and exactly reproducible, so the graceful-degradation
// defenses in internal/schedule (activation supervision), internal/host
// (quorum gating) and internal/sim (payload validation, duplicate
// suppression) can be measured instead of assumed.
//
// Node-level faults are drawn by an Injector from per-node RNG streams:
// for a fixed Config (including Seed) the fault schedule is identical
// across runs, under -race, and independent of everything else the
// simulation does. Every node draws the same, fixed number of variates per
// slot, so enabling one injector never moves where another one fires.
//
// Link-level faults (Gilbert–Elliott burst loss, payload corruption,
// duplication, reordering) live in internal/comm's link model; this
// package only carries their defaults. Defense knobs are bundled in
// DefenseConfig, consumed by schedule.NewSupervised and host.Config.
package fault

import (
	"fmt"
	"math/rand"
)

// DefaultStallSlots is the harvester-outage window length used when
// Config.StallSlots is zero: 40 slots (10 s) — long enough to drain a
// calibrated node's store from full at idle draw.
const DefaultStallSlots = 40

// Config enables the node-level fault injectors. The zero value injects
// nothing. All rates are per-node, per-slot probabilities in [0, 1).
type Config struct {
	// BrownoutPerSlot is the probability of a transient brownout: the
	// node's capacitor is force-drained to empty. With an NVP the
	// checkpointed inference survives (stalled); a volatile processor
	// loses its progress.
	BrownoutPerSlot float64
	// StallPerSlot is the probability that a harvester outage window
	// opens: the node harvests nothing for StallSlots slots (leakage and
	// idle draw continue).
	StallPerSlot float64
	// StallSlots is the outage window length in slots (0 = DefaultStallSlots).
	StallSlots int
	// DeathPerSlot is the probability of permanent node death: the node
	// stops harvesting, computing and responding for the rest of the run.
	DeathPerSlot float64
	// RebootPerSlot is the probability of a node reboot: the in-flight
	// inference and all volatile state are lost; the node then operates
	// normally.
	RebootPerSlot float64
	// Seed drives the fault schedule. It is deliberately separate from
	// the simulation seed so the same fault schedule can be replayed
	// against different system configurations.
	Seed int64
}

// Enabled reports whether any injector has a non-zero rate.
func (c *Config) Enabled() bool {
	return c != nil && (c.BrownoutPerSlot > 0 || c.StallPerSlot > 0 ||
		c.DeathPerSlot > 0 || c.RebootPerSlot > 0)
}

// Validate reports the first invalid parameter, or nil.
func (c *Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"brownout", c.BrownoutPerSlot},
		{"stall", c.StallPerSlot},
		{"death", c.DeathPerSlot},
		{"reboot", c.RebootPerSlot},
	} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("fault: %s rate %v outside [0,1)", r.name, r.v)
		}
	}
	if c.StallSlots < 0 {
		return fmt.Errorf("fault: negative stall window %d", c.StallSlots)
	}
	return nil
}

// Events is the set of faults fired for one (node, slot).
type Events struct {
	// Brownout force-drains the capacitor this slot.
	Brownout bool
	// StallSlots, when positive, opens a harvester outage window of this
	// many slots starting this slot.
	StallSlots int
	// Death kills the node permanently this slot.
	Death bool
	// Reboot restarts the node this slot (in-flight state lost).
	Reboot bool
}

// Injector draws the deterministic per-node fault schedule. One injector
// serves one run; call Slot exactly once per scheduler slot, in order.
type Injector struct {
	cfg  Config
	rngs []*rand.Rand
	buf  []Events
}

// NewInjector builds an injector for the given node count, validating cfg.
func NewInjector(cfg Config, nodes int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("fault: invalid node count %d", nodes)
	}
	if cfg.StallSlots == 0 {
		cfg.StallSlots = DefaultStallSlots
	}
	in := &Injector{cfg: cfg, buf: make([]Events, nodes)}
	for id := 0; id < nodes; id++ {
		// Disjoint per-node streams: the schedule for node i does not
		// depend on how many other nodes exist or what they drew.
		in.rngs = append(in.rngs, rand.New(rand.NewSource(cfg.Seed+int64(id)*0x9E3779B9+1)))
	}
	return in, nil
}

// Slot draws the fault events for every node at the next slot. The
// returned slice is reused across calls; copy it to retain. Each node
// always consumes exactly four variates per slot, so the schedule of one
// injector class is invariant under enabling or disabling the others.
func (in *Injector) Slot() []Events {
	for id, rng := range in.rngs {
		brown, stall, death, reboot := rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		ev := Events{
			Brownout: in.cfg.BrownoutPerSlot > 0 && brown < in.cfg.BrownoutPerSlot,
			Death:    in.cfg.DeathPerSlot > 0 && death < in.cfg.DeathPerSlot,
			Reboot:   in.cfg.RebootPerSlot > 0 && reboot < in.cfg.RebootPerSlot,
		}
		if in.cfg.StallPerSlot > 0 && stall < in.cfg.StallPerSlot {
			ev.StallSlots = in.cfg.StallSlots
		}
		in.buf[id] = ev
	}
	return in.buf
}

// DefenseConfig bundles the graceful-degradation knobs. The zero value
// disables every defense (pre-PR behaviour). schedule.NewSupervised
// consumes the activation-supervision fields; host.Config.Quorum carries
// the quorum gate.
type DefenseConfig struct {
	// ActivationTimeoutSlots is the deadline, in slots, for an activated
	// node to deliver a result before it is declared silent. 0 disables
	// activation supervision (no retries, no masking).
	ActivationTimeoutSlots int
	// MaxRetries is how many times a silent activation is re-issued to
	// the same node before falling back to the next-ranked sensor.
	MaxRetries int
	// MaskAfter masks a node out of scheduling after this many
	// consecutive silent (timed-out, retries exhausted) activations.
	// 0 disables masking.
	MaskAfter int
	// ProbeEvery re-activates a masked node once per this many skipped
	// selections, so a recovered node can rejoin (0 = DefaultProbeEvery).
	ProbeEvery int
	// Quorum is the minimum number of valid ensemble votes required for a
	// classification; fewer make the host abstain (-1) instead of
	// classifying from a lone stale opinion. 0 disables the gate.
	Quorum int
}

// DefaultProbeEvery is the probe cadence used when ProbeEvery is zero.
const DefaultProbeEvery = 8

// Enabled reports whether any defense is armed.
func (d *DefenseConfig) Enabled() bool {
	return d != nil && (d.ActivationTimeoutSlots > 0 || d.Quorum > 0)
}

// Validate reports the first invalid parameter, or nil.
func (d *DefenseConfig) Validate() error {
	switch {
	case d.ActivationTimeoutSlots < 0:
		return fmt.Errorf("fault: negative activation timeout %d", d.ActivationTimeoutSlots)
	case d.MaxRetries < 0:
		return fmt.Errorf("fault: negative retry budget %d", d.MaxRetries)
	case d.MaskAfter < 0:
		return fmt.Errorf("fault: negative mask threshold %d", d.MaskAfter)
	case d.ProbeEvery < 0:
		return fmt.Errorf("fault: negative probe cadence %d", d.ProbeEvery)
	case d.Quorum < 0:
		return fmt.Errorf("fault: negative quorum %d", d.Quorum)
	}
	return nil
}
