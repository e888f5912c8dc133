// Package sensor models one energy-harvesting sensor node of the body-area
// network: an IMU (sampling the synthetic signal), a capacitor energy store
// charged from a harvesting trace, an NVP compute component running the
// node's per-location DNN, and a low-rate radio to the host.
//
// The node integrates the substrates: internal/energy supplies and stores
// power, internal/nvp executes inference intermittently, internal/dnn
// provides the classifier, and internal/synth describes what the IMU senses.
package sensor

import (
	"fmt"

	"origin/internal/dnn"
	"origin/internal/energy"
	"origin/internal/nvp"
	"origin/internal/obs"
	"origin/internal/synth"
	"origin/internal/tensor"
)

// RadioConfig models the BLE/WiFi result uplink. The paper assumes this
// cost is negligible ("infrequently sends a few bytes"); the model keeps it
// non-zero so that assumption is checkable rather than baked in.
type RadioConfig struct {
	// FixedJ is the per-message wake/sync energy.
	FixedJ float64
	// PerByteJ is the marginal energy per payload byte.
	PerByteJ float64
}

// DefaultRadioConfig returns a short-range BLE-class cost model.
func DefaultRadioConfig() RadioConfig {
	return RadioConfig{FixedJ: 0.3e-6, PerByteJ: 0.15e-6}
}

// MessageEnergy returns the cost of sending n payload bytes.
func (r RadioConfig) MessageEnergy(n int) float64 {
	return r.FixedJ + float64(n)*r.PerByteJ
}

// ResultMessageBytes is the uplink payload of one classification result:
// class id (1), quantised confidence (2), sensor id + flags (1), sequence
// number (2).
const ResultMessageBytes = 6

// Config assembles a node.
type Config struct {
	// ID is the node index in the network (also its ensemble voter id).
	ID int
	// Location is the body placement.
	Location synth.Location
	// Net is the node's classifier. The node takes ownership (clone before
	// passing if sharing).
	Net *dnn.Network
	// Proc configures the NVP compute component.
	Proc nvp.Config
	// Capacitor configures the energy store.
	CapacityJ, LeakW, MinOperatingJ, InitialJ float64
	// Radio configures the result uplink.
	Radio RadioConfig
	// OverheadMACs is the fixed per-inference cost (IMU window capture,
	// memory traffic, control) in MAC-equivalents.
	OverheadMACs float64
	// IdleW is the node's continuous draw (IMU sampling, sleep controller)
	// in watts, drained from the store every tick regardless of compute.
	IdleW float64
	// Harvest is the node's view of the shared harvesting trace (already
	// scaled for its body location).
	Harvest *energy.Trace
	// Battery, if non-nil, makes the node hybrid: whenever the capacitor
	// falls below BatteryAssistJ, the battery tops it up (subject to its
	// own discharge-power limit). nil is a pure EH node.
	Battery *energy.Battery
	// BatteryAssistJ is the capacitor level that triggers battery assist.
	BatteryAssistJ float64
}

// DefaultConfig returns the calibrated node parameters used by the
// experiments (see DESIGN.md "Calibration constants"): a 350 µJ capacitor,
// 5 µJ per-inference overhead (2500 MAC-equivalents at 2 nJ/MAC) and a
// 300 kMAC/s NVP.
func DefaultConfig(id int, loc synth.Location, net *dnn.Network, harvest *energy.Trace) Config {
	proc := nvp.DefaultConfig()
	proc.MACsPerSecond = 300e3
	return Config{
		ID:            id,
		Location:      loc,
		Net:           net,
		Proc:          proc,
		CapacityJ:     350e-6,
		LeakW:         1e-6,
		MinOperatingJ: 5e-6,
		InitialJ:      175e-6,
		Radio:         DefaultRadioConfig(),
		OverheadMACs:  2500,
		Harvest:       harvest,
	}
}

// Result is one completed classification, as received by the host.
type Result struct {
	// Sensor is the node id.
	Sensor int
	// Class is the predicted activity.
	Class int
	// Confidence is the softmax-variance confidence score.
	Confidence float64
	// Slot is the scheduler slot whose window was classified.
	Slot int
	// TrueClass is the ground-truth activity of that window (carried for
	// evaluation only; the real system does not know it).
	TrueClass int
}

// Node is one EH sensor node.
type Node struct {
	cfg  Config
	cap  *energy.Capacitor
	proc *nvp.Processor

	// netMACs and layerMACs are the net's inference MACs, in total and per
	// layer, counted once in New: no net changes after its node is built.
	netMACs   float64
	layerMACs []float64

	// pending inference state
	window    *tensor.Tensor
	windowers int // slot the window belongs to
	trueClass int

	// fault state (driven by the fault-injection layer)
	dead           bool
	stallUntilTick int

	// telemetry
	started      int
	completed    int
	deadlineMiss int
	radioJ       float64
	radioMsgs    int
	obs          *obs.Telemetry
}

// New builds a node from cfg.
func New(cfg Config) *Node {
	if cfg.Net == nil {
		panic("sensor: Config.Net is required")
	}
	if cfg.Harvest == nil {
		panic("sensor: Config.Harvest is required")
	}
	n := &Node{
		cfg:       cfg,
		cap:       energy.NewCapacitor(cfg.CapacityJ, cfg.LeakW, cfg.MinOperatingJ, cfg.InitialJ),
		proc:      nvp.NewProcessor(cfg.Proc),
		layerMACs: make([]float64, len(cfg.Net.Layers)),
	}
	// Conv MACs scale with the input width of the layer's last forward;
	// every net builder and dnn.Load run a warm-up forward at the served
	// window width, and inference never changes it.
	for i, l := range cfg.Net.Layers {
		n.layerMACs[i] = float64(l.MACs())
		n.netMACs += n.layerMACs[i]
	}
	return n
}

// Attach routes the node's inference lifecycle and power-emergency
// events into the given run telemetry. A nil telemetry detaches.
func (n *Node) Attach(t *obs.Telemetry) { n.obs = t }

// Location returns the node's body placement.
func (n *Node) Location() synth.Location { return n.cfg.Location }

// Capacitor exposes the energy store (read-mostly; the simulator drives it).
func (n *Node) Capacitor() *energy.Capacitor { return n.cap }

// Busy reports whether an inference is in flight.
func (n *Node) Busy() bool { return n.proc.Busy() }

// InferenceMACs returns the task size of one inference on this node,
// including the fixed overhead.
func (n *Node) InferenceMACs() float64 {
	return n.netMACs + n.cfg.OverheadMACs
}

// InferenceEnergy returns the energy one inference needs on this node.
func (n *Node) InferenceEnergy() float64 {
	return n.InferenceMACs() * n.cfg.Proc.EnergyPerMAC
}

// CanAfford reports whether the store currently holds enough available
// energy for a full inference plus the result uplink — the energy check the
// AAS scheduler performs before signalling a sensor (§III-B). A dead node
// can afford nothing.
func (n *Node) CanAfford() bool {
	return !n.dead && n.cap.Available() >= n.InferenceEnergy()+n.cfg.Radio.MessageEnergy(ResultMessageBytes)
}

// Alive reports whether the node is still operational (not killed by the
// fault injector).
func (n *Node) Alive() bool { return !n.dead }

// Kill fails the node permanently (fault injection): any in-flight
// inference is lost, and the node stops harvesting, computing and
// responding to activations for the rest of the run.
func (n *Node) Kill() {
	if n.dead {
		return
	}
	if n.proc.Busy() {
		n.deadlineMiss++
		n.obs.NoteInferenceAborted()
	}
	n.proc.Abort()
	n.window = nil
	n.dead = true
}

// Reboot restarts the node (fault injection): the in-flight inference and
// all volatile state are lost — even the NVP checkpoint, modelling a
// watchdog reset that clears the non-volatile progress journal. The energy
// store and the node's long-term counters survive.
func (n *Node) Reboot() {
	if n.dead {
		return
	}
	n.AbortInference()
}

// Brownout force-drains the capacitor to empty (fault injection). With an
// NVP the checkpointed inference progress survives and stalls until energy
// returns; a volatile processor loses it at the next emergency step.
func (n *Node) Brownout() {
	if n.dead {
		return
	}
	n.cap.Drain()
}

// StallHarvest opens a harvester outage window: the node harvests nothing
// until the given trace tick (leakage and idle draw continue). Overlapping
// windows extend, never shorten.
func (n *Node) StallHarvest(untilTick int) {
	if untilTick > n.stallUntilTick {
		n.stallUntilTick = untilTick
	}
}

// StartInference arms an inference over the given IMU window (belonging to
// slot, with ground truth trueClass). Any unfinished previous inference is
// aborted (deadline missed).
func (n *Node) StartInference(window *tensor.Tensor, slot, trueClass int) {
	if n.dead {
		return // a dead node silently ignores activations
	}
	if n.proc.Busy() {
		n.deadlineMiss++
		n.obs.NoteInferenceAborted()
	}
	n.obs.NoteInferenceStarted()
	if n.cfg.Proc.Granularity == nvp.GranularityLayer {
		n.proc.Start(nvp.NewLayerTask(n.layerMACs, n.cfg.OverheadMACs))
	} else {
		n.proc.Start(nvp.NewTask(n.InferenceMACs()))
	}
	n.window = window
	n.windowers = slot
	n.trueClass = trueClass
	n.started++
}

// AbortInference drops any in-flight inference (slot deadline passed).
func (n *Node) AbortInference() {
	if n.proc.Busy() {
		n.deadlineMiss++
		n.obs.NoteInferenceAborted()
	}
	n.proc.Abort()
	n.window = nil
}

// Tick advances the node by dt seconds at trace tick index tickIdx:
// harvesting, then compute. If the in-flight inference completes this tick,
// Tick classifies the stored window with the node's DNN, pays the radio
// cost, and returns the result. Otherwise it returns nil.
func (n *Node) Tick(tickIdx int, dt float64) *Result {
	if n.dead {
		return nil // dead hardware: no harvesting, no leakage, no compute
	}
	harvestW := n.cfg.Harvest.At(tickIdx)
	if tickIdx < n.stallUntilTick {
		harvestW = 0 // harvester outage window: store still leaks below
	}
	n.cap.Harvest(harvestW, dt)
	if n.cfg.Battery != nil {
		n.cfg.Battery.Tick(dt)
		if deficit := n.cfg.BatteryAssistJ - n.cap.Stored(); deficit > 0 {
			n.cap.Harvest(n.cfg.Battery.Supply(deficit, dt)/dt, dt)
		}
	}
	if n.cfg.IdleW > 0 {
		n.cap.DrawUpTo(n.cfg.IdleW * dt)
	}
	if !n.proc.Busy() {
		return nil
	}
	emergencies := n.proc.Stats().Emergencies
	done := n.proc.Step(n.cap, dt)
	n.obs.NoteEmergencies(n.proc.Stats().Emergencies - emergencies)
	if !done {
		return nil
	}
	// Inference done: produce the classification from the real DNN.
	class, probs := n.cfg.Net.Predict(n.window)
	res := &Result{
		Sensor:     n.cfg.ID,
		Class:      class,
		Confidence: probs.Variance(),
		Slot:       n.windowers,
		TrueClass:  n.trueClass,
	}
	n.window = nil
	n.completed++
	n.obs.NoteInferenceCompleted()
	// Uplink the few-byte result; if the store cannot fund the message the
	// node waits (in reality it would retry next tick — at these energies
	// the difference is negligible, so the model sends best-effort).
	cost := n.cfg.Radio.MessageEnergy(ResultMessageBytes)
	n.cap.DrawUpTo(cost)
	n.radioJ += cost
	n.radioMsgs++
	return res
}

// Stats returns node telemetry.
func (n *Node) Stats() NodeStats {
	harvested, consumed, wasted := n.cap.Stats()
	return NodeStats{
		Started:      n.started,
		Completed:    n.completed,
		DeadlineMiss: n.deadlineMiss,
		RadioJ:       n.radioJ,
		RadioMsgs:    n.radioMsgs,
		HarvestedJ:   harvested,
		ConsumedJ:    consumed,
		WastedJ:      wasted,
		Proc:         n.proc.Stats(),
	}
}

// NodeStats is cumulative node telemetry.
type NodeStats struct {
	// Started counts inference starts; Completed counts completions;
	// DeadlineMiss counts inferences aborted unfinished.
	Started, Completed, DeadlineMiss int
	// RadioJ is total uplink energy; RadioMsgs counts messages.
	RadioJ    float64
	RadioMsgs int
	// HarvestedJ, ConsumedJ and WastedJ are the store's cumulative energy
	// intake, load consumption and saturation waste.
	HarvestedJ, ConsumedJ, WastedJ float64
	// Proc is the NVP's own telemetry.
	Proc nvp.Stats
}

// CompletionRate returns Completed/Started (0 when nothing started).
func (s NodeStats) CompletionRate() float64 {
	if s.Started == 0 {
		return 0
	}
	return float64(s.Completed) / float64(s.Started)
}

// String summarises the stats for logs.
func (s NodeStats) String() string {
	return fmt.Sprintf("started=%d completed=%d (%.1f%%) misses=%d emergencies=%d radio=%.1fµJ harvested=%.0fµJ consumed=%.0fµJ wasted=%.0fµJ",
		s.Started, s.Completed, 100*s.CompletionRate(), s.DeadlineMiss, s.Proc.Emergencies,
		s.RadioJ*1e6, s.HarvestedJ*1e6, s.ConsumedJ*1e6, s.WastedJ*1e6)
}
