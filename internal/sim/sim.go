// Package sim is the discrete-time simulator that binds everything
// together: an activity timeline drives what the IMUs sense, a harvesting
// trace drives what the capacitors store, a scheduling policy decides which
// node infers in each slot, the NVP model executes those inferences
// intermittently, and the host aggregates results into the system's per-slot
// classification.
//
// Time is organised in scheduler slots of SlotSeconds, subdivided into the
// harvesting trace's tick (10 ms): within every tick each node harvests and
// (if busy) computes. A node's in-flight inference survives slot boundaries
// — it is aborted only when the policy re-activates that node (its natural
// deadline), so completion statistics emerge from energy availability
// rather than from an arbitrary cutoff.
package sim

import (
	"fmt"
	"math"

	"origin/internal/comm"
	"origin/internal/fault"

	"origin/internal/host"
	"origin/internal/metrics"
	"origin/internal/obs"
	"origin/internal/schedule"
	"origin/internal/sensor"
	"origin/internal/synth"
)

// SlotSeconds is the scheduler slot length: 250 ms, i.e. four inference
// opportunities per second, comfortably inside the hundreds-of-milliseconds
// activity granularity the paper leverages.
const SlotSeconds = 0.25

// Config describes one simulation run.
type Config struct {
	// Profile is the dataset profile (activities + signatures).
	Profile *synth.Profile
	// User supplies the subject's gait parameters.
	User *synth.User
	// Timeline is the slot-by-slot ground-truth activity stream.
	Timeline *synth.Timeline
	// Nodes are the EH sensor nodes, indexed by id.
	Nodes []*sensor.Node
	// Policy schedules inferences.
	Policy schedule.Policy
	// Host aggregates results.
	Host *host.Device
	// Window is the IMU samples per classification window.
	Window int
	// Seed drives window synthesis during the run.
	Seed int64
	// WarmupSlots excludes the cold-start prefix from accuracy accounting.
	WarmupSlots int
	// NoiseSNRdB, if non-zero, adds white Gaussian noise at this SNR to
	// every sensed window (the Fig. 6 unseen-user protocol).
	NoiseSNRdB float64
	// Comm, if non-nil, models the wireless links explicitly: activation
	// signals travel the downlink and results travel the uplink, both with
	// latency and loss. nil means a perfect, instantaneous network.
	Comm *CommConfig
	// Fault, if non-nil with any non-zero rate, injects deterministic
	// node-level faults (brownouts, harvester stalls, permanent death,
	// reboots) at the start of each slot. Link-level faults (burst loss,
	// corruption, duplication, reordering) are configured per link in Comm.
	Fault *fault.Config
}

// CommConfig bundles the two link models of the body-area network.
type CommConfig struct {
	// Uplink carries sensor results to the host.
	Uplink comm.Config
	// Downlink carries activation signals to the sensors.
	Downlink comm.Config
}

// Result collects everything a run produces.
type Result struct {
	// Confusion is slot-level: every post-warmup slot contributes one
	// (true, predicted) observation of the system output.
	Confusion *metrics.Confusion
	// RoundConfusion scores only ensemble rounds — post-warmup slots in
	// which at least one fresh classification arrived and the host
	// (re-)ran its aggregation. This is the paper's accuracy notion: a
	// classifier is scored on the classifications it performs, not on
	// wall-clock slots where an energy-starved system stays silent.
	RoundConfusion *metrics.Confusion
	// Completion is the per-attempt breakdown grouped by activation round
	// (the Fig. 1 statistic).
	Completion metrics.Completion
	// NodeStats is final telemetry per node.
	NodeStats []sensor.NodeStats
	// Slots is the number of simulated slots.
	Slots int
	// FreshSlots counts post-warmup slots in which at least one fresh
	// result arrived.
	FreshSlots int
	// Truth and Predicted record per-slot ground truth and system output
	// (-1 = no output) for every post-warmup slot, and FreshMask marks the
	// ensemble rounds, enabling downstream analyses (transition splits,
	// adaptation curves) without re-running the simulation.
	Truth, Predicted []int
	FreshMask        []bool
	// Telemetry is the run's event record: inference lifecycle counts,
	// power emergencies, link sends/drops/late deliveries, recall vs fresh
	// votes, adaptation updates and end-of-run in-flight losses, with
	// per-slot tallies.
	Telemetry *obs.Telemetry
}

// Accuracy is shorthand for Result.Confusion.Accuracy().
func (r *Result) Accuracy() float64 { return r.Confusion.Accuracy() }

// RoundAccuracy is shorthand for Result.RoundConfusion.Accuracy().
func (r *Result) RoundAccuracy() float64 { return r.RoundConfusion.Accuracy() }

// Availability is the fraction of post-warmup slots in which the system
// produced an output (Predicted >= 0). Under fault injection with quorum
// gating, degradation shows up here — as honest abstention — rather than
// as unaccounted misclassifications in the accuracy columns.
func (r *Result) Availability() float64 {
	if len(r.Predicted) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.Predicted {
		if p >= 0 {
			n++
		}
	}
	return float64(n) / float64(len(r.Predicted))
}

// RoundPerClass is shorthand for Result.RoundConfusion.PerClass().
func (r *Result) RoundPerClass() []float64 { return r.RoundConfusion.PerClass() }

type attempt struct {
	activated int
	completed int
}

// Run executes the simulation described by cfg.
func Run(cfg Config) *Result {
	validate(&cfg)
	classes := cfg.Profile.NumClasses()
	tele := obs.NewTelemetry(cfg.Timeline.Len())
	res := &Result{
		Confusion:      metrics.NewConfusion(classes),
		RoundConfusion: metrics.NewConfusion(classes),
		Slots:          cfg.Timeline.Len(),
		Telemetry:      tele,
	}
	for _, n := range cfg.Nodes {
		n.Attach(tele)
	}
	cfg.Host.Attach(tele)
	if p, ok := cfg.Policy.(interface{ Attach(*obs.Telemetry) }); ok {
		p.Attach(tele) // e.g. schedule.Supervised's defense counters
	}

	// One window generator per location so signals differ per node but are
	// deterministic given cfg.Seed.
	gens := make([]*synth.Generator, len(cfg.Nodes))
	noiseRngs := make([]*prng, len(cfg.Nodes))
	for i := range cfg.Nodes {
		gens[i] = synth.NewGenerator(cfg.Profile, cfg.User, cfg.Window, cfg.Seed+int64(i)*7919)
		noiseRngs[i] = newPrng(cfg.Seed + 1_000_003 + int64(i))
	}

	traceTick := 0.01
	ticksPerSlot := int(math.Round(SlotSeconds / traceTick))

	// attempts[round key = start slot] tracks Fig. 1 completion grouping.
	attempts := map[int]*attempt{}
	// inflightStart[node] is the slot the node's pending inference started.
	inflightStart := make([]int, len(cfg.Nodes))
	for i := range inflightStart {
		inflightStart[i] = -1
	}

	// bodyRng drives the per-slot whole-body motion state shared by all
	// sensors: one body, one cadence, one effort (see synth.BodyState).
	bodyRng := newPrng(cfg.Seed + 555).r

	// Optional explicit wireless links. The uplink payload carries the
	// slot the result was sent in, so late deliveries (arrival after a
	// slot boundary) are visible in the telemetry.
	var uplink *comm.Link[uplinkMsg]
	var downlink *comm.Link[comm.Activation]
	if cfg.Comm != nil {
		up, down := cfg.Comm.Uplink, cfg.Comm.Downlink
		if up.Seed == 0 {
			up.Seed = cfg.Seed + 17011
		}
		if down.Seed == 0 {
			down.Seed = cfg.Seed + 17021
		}
		uplink = comm.NewLink[uplinkMsg](up)
		downlink = comm.NewLink[comm.Activation](down)
		uplink.Attach(tele, obs.Uplink)
		downlink.Attach(tele, obs.Downlink)
		// Payload corruption is exercised end-to-end through the wire codec:
		// encode, flip one bit, decode, and let the receiver's validation
		// reject what no longer makes sense. The bit index comes from a
		// dedicated stream so installing a corrupter never perturbs the
		// links' own RNG sequences.
		if up.CorruptRate > 0 {
			bits := newPrng(cfg.Seed + 90001).r
			uplink.SetCorrupter(func(m uplinkMsg) uplinkMsg {
				b, err := comm.EncodeResult(comm.WireResult{
					Sensor: m.res.Sensor, Class: m.res.Class,
					Confidence: m.res.Confidence, Seq: m.res.Slot,
				})
				if err != nil {
					return m
				}
				comm.FlipBit(b[:], bits.Intn(len(b)*8))
				w, _ := comm.DecodeResultBytes(b[:])
				damaged := *m.res
				damaged.Sensor, damaged.Class, damaged.Confidence = w.Sensor, w.Class, w.Confidence
				return uplinkMsg{res: &damaged, sentSlot: m.sentSlot}
			})
		}
		if down.CorruptRate > 0 {
			bits := newPrng(cfg.Seed + 90011).r
			downlink.SetCorrupter(func(a comm.Activation) comm.Activation {
				b, err := comm.EncodeActivation(a)
				if err != nil {
					return a
				}
				comm.FlipBit(b[:], bits.Intn(len(b)*8))
				d, _ := comm.DecodeActivationBytes(b[:])
				return d
			})
		}
	}

	// Node-level fault injection: one deterministic draw per node per slot.
	var injector *fault.Injector
	if cfg.Fault.Enabled() {
		inj, err := fault.NewInjector(*cfg.Fault, len(cfg.Nodes))
		if err != nil {
			panic(err.Error())
		}
		injector = inj
	}

	// The active policy learns about accepted fresh results when it asks to
	// (the supervised wrapper's activation-timeout bookkeeping).
	resultObs, _ := cfg.Policy.(schedule.ResultObserver)

	// Monotonic per-sensor acceptance gates: a node's result window slots
	// and its activation slots are both strictly increasing, so anything at
	// or below the watermark is a duplicate (radio retransmit artefact or a
	// reordered stale copy) and is suppressed. On fault-free links the gates
	// never fire.
	lastResultSlot := make([]int, len(cfg.Nodes))
	lastActSlot := make([]int, len(cfg.Nodes))
	for i := range lastResultSlot {
		lastResultSlot[i] = -1
		lastActSlot[i] = -1
	}

	globalTick := 0
	for slot := 0; slot < cfg.Timeline.Len(); slot++ {
		tele.BeginSlot(slot)
		trueAct := cfg.Timeline.PerSlot[slot]
		body := synth.DrawBodyState(bodyRng)

		// Fault injection happens before the policy looks at the network, so
		// a slot's decision sees the world the faults just made.
		if injector != nil {
			for id, ev := range injector.Slot() {
				n := cfg.Nodes[id]
				if !n.Alive() {
					continue
				}
				if ev.Death {
					n.Kill()
					tele.NoteNodeDeath()
					inflightStart[id] = -1
					continue
				}
				if ev.Reboot {
					n.Reboot()
					tele.NoteNodeReboot()
					inflightStart[id] = -1
				}
				if ev.Brownout {
					n.Brownout()
					tele.NoteBrownout()
				}
				if ev.StallSlots > 0 {
					n.StallHarvest(globalTick + ev.StallSlots*ticksPerSlot)
					tele.NoteHarvesterStall()
				}
			}
		}

		// Policy decision at slot start.
		ctx := &schedule.Context{
			Slot:        slot,
			NumSensors:  len(cfg.Nodes),
			Anticipated: cfg.Host.Anticipated(),
			CanAfford: func(s int) bool {
				return cfg.Nodes[s].CanAfford()
			},
			OracleActivity: trueAct,
			StoreFraction: func(s int) float64 {
				return cfg.Nodes[s].Capacitor().Stored() / cfg.Nodes[s].Capacitor().CapacityJ
			},
		}
		startNode := func(id, startSlot, act int, st synth.BodyState) {
			n := cfg.Nodes[id]
			// Starting a new inference aborts an unfinished one (its round
			// stays marked incomplete).
			w := gens[id].WindowWithState(act, n.Location(), st)
			if cfg.NoiseSNRdB != 0 {
				synth.AddNoiseSNR(w, cfg.NoiseSNRdB, noiseRngs[id].r)
			}
			n.StartInference(w, startSlot, act)
			inflightStart[id] = startSlot
		}
		for _, id := range cfg.Policy.Decide(ctx) {
			a := attempts[slot]
			if a == nil {
				a = &attempt{}
				attempts[slot] = a
			}
			a.activated++
			if downlink != nil {
				// The activation signal rides the lossy downlink; a dropped
				// signal is one of the paper's coordination failures — the
				// sensor simply never starts.
				downlink.Send(globalTick, comm.Activation{Sensor: id, Slot: slot})
				continue
			}
			startNode(id, slot, trueAct, body)
		}

		// Sub-tick integration.
		freshThisSlot := false
		for t := 0; t < ticksPerSlot; t++ {
			if downlink != nil {
				for _, act := range downlink.Deliver(globalTick) {
					// A corrupted activation that names an unknown sensor or
					// a slot that has not happened yet is rejected, not
					// panicked on; a duplicate or stale copy (at or below the
					// sensor's activation watermark) is suppressed.
					if act.Validate(len(cfg.Nodes)) != nil || act.Slot > slot {
						tele.NoteRejected(obs.Downlink)
						continue
					}
					if act.Slot <= lastActSlot[act.Sensor] {
						tele.NoteDupDropped(obs.Downlink)
						continue
					}
					lastActSlot[act.Sensor] = act.Slot
					// The activation arrives a little late: the sensor
					// samples the activity as it is *now*, but the attempt
					// stays credited to the round that decided it
					// (act.Slot), so a delivery that slips past a slot
					// boundary does not misattribute its completion.
					if act.Slot < slot {
						tele.NoteLate(obs.Downlink)
					}
					startNode(act.Sensor, act.Slot, trueAct, body)
				}
			}
			for id, n := range cfg.Nodes {
				r := n.Tick(globalTick, traceTick)
				if r == nil {
					continue
				}
				if a := attempts[r.Slot]; a != nil {
					a.completed++
				}
				inflightStart[id] = -1
				if uplink != nil {
					uplink.Send(globalTick, uplinkMsg{res: r, sentSlot: slot})
					continue
				}
				deliverResult(cfg.Host, r, slot)
				if resultObs != nil {
					resultObs.NoteResult(r.Sensor)
				}
				freshThisSlot = true
			}
			if uplink != nil {
				for _, m := range uplink.Deliver(globalTick) {
					// A corrupted result that decodes to an unknown sensor
					// or class is rejected, not panicked on; a duplicate or
					// reordered stale copy (window slot at or below the
					// sensor's watermark) is suppressed.
					w := comm.WireResult{Sensor: m.res.Sensor, Class: m.res.Class}
					if w.Validate(len(cfg.Nodes), classes) != nil {
						tele.NoteRejected(obs.Uplink)
						continue
					}
					if m.res.Slot <= lastResultSlot[m.res.Sensor] {
						tele.NoteDupDropped(obs.Uplink)
						continue
					}
					lastResultSlot[m.res.Sensor] = m.res.Slot
					if m.sentSlot < slot {
						tele.NoteLate(obs.Uplink)
					}
					deliverResult(cfg.Host, m.res, slot)
					if resultObs != nil {
						resultObs.NoteResult(m.res.Sensor)
					}
					freshThisSlot = true
				}
			}
			globalTick++
		}

		// System output for this slot. Each received result moves the
		// anticipation as it arrives (§III-B), and the fused ensemble
		// opinion then overrides it: NoteFinal breaks the self-reinforcing
		// loop where a weak sensor keeps nominating itself for the
		// activity it keeps (mis)detecting.
		final := cfg.Host.Classify(slot)
		cfg.Host.NoteFinal(final)
		if freshThisSlot {
			cfg.Host.Adapt(slot, final)
		}
		if slot >= cfg.WarmupSlots {
			res.Confusion.Add(trueAct, final)
			res.Truth = append(res.Truth, trueAct)
			res.Predicted = append(res.Predicted, final)
			res.FreshMask = append(res.FreshMask, freshThisSlot)
			if freshThisSlot {
				res.RoundConfusion.Add(trueAct, final)
				res.FreshSlots++
			}
		}
	}

	// Account for everything still in flight when the timeline ends: these
	// results and activations are lost (their attempt rounds stay
	// incomplete), and the telemetry makes that loss visible instead of
	// silently folding it into the failure rate.
	if uplink != nil {
		tele.NoteDiscardedResults(uplink.Pending())
	}
	if downlink != nil {
		tele.NoteDiscardedActivations(downlink.Pending())
	}
	for _, n := range cfg.Nodes {
		if n.Busy() {
			tele.NoteAbandonedInference()
		}
	}

	for _, a := range attempts {
		res.Completion.Record(a.activated, a.completed)
	}
	for _, n := range cfg.Nodes {
		res.NodeStats = append(res.NodeStats, n.Stats())
	}
	return res
}

// uplinkMsg is the uplink payload: the sensor result plus the slot it
// was sent in, so deliveries that slip past a slot boundary can be
// counted as late.
type uplinkMsg struct {
	res      *sensor.Result
	sentSlot int
}

// deliverResult hands a sensor result to the host stamped with its arrival
// slot: freshness and recall ageing are relative to arrival, not to the
// window the inference classified.
func deliverResult(h *host.Device, r *sensor.Result, arrivalSlot int) {
	hr := *r
	hr.Slot = arrivalSlot
	h.Observe(&hr)
}

func validate(cfg *Config) {
	switch {
	case cfg.Profile == nil:
		panic("sim: Config.Profile is required")
	case cfg.User == nil:
		panic("sim: Config.User is required")
	case cfg.Timeline == nil || cfg.Timeline.Len() == 0:
		panic("sim: Config.Timeline is required")
	case len(cfg.Nodes) == 0:
		panic("sim: Config.Nodes is required")
	case cfg.Policy == nil:
		panic("sim: Config.Policy is required")
	case cfg.Host == nil:
		panic("sim: Config.Host is required")
	case cfg.Window <= 0:
		panic(fmt.Sprintf("sim: invalid window %d", cfg.Window))
	}
}
