// Package fleet is the multi-user serving layer of the reproduction: it
// turns the single-wearer facade (one trained System, one host device, one
// simulated body-area network) into a session service able to hold
// host-side state for many concurrent users at once.
//
// The split mirrors what the paper's design implies for a deployment at
// scale: the expensive artefacts — the trained per-location DNNs, the
// derived accuracy and rank tables, the initial confidence matrix — are
// population-level and identical for every wearer, while the state that
// personalises the ensemble (the recall store and the adaptively-updated
// confidence matrix, §III-B/§III-C) is strictly per user. A Registry
// therefore builds each profile's System exactly once and shares it
// read-only across all sessions; a Session clones only the small mutable
// state; and a Manager bounds how many sessions and how much concurrent
// classification work the process accepts, shedding load instead of
// queueing without limit.
//
// Concurrency contract:
//
//   - The registry's System is never mutated after build. Sessions receive
//     their confidence matrix via ensemble.Matrix.Clone, whose rows share
//     no backing storage with the original (pinned by tests in
//     internal/ensemble), so per-session adaptation cannot bleed across
//     users or back into the registry.
//   - The shared DNNs are stateful during a forward pass (layers cache
//     activations — see dnn.Layer), so inference never runs on the
//     registry's own nets: each Model keeps one pool of cloned net sets and
//     classification borrows a set for the duration of one request.
//   - A Session serialises its own requests with a mutex; its
//     classification sequence depends only on the order of its own
//     requests, never on how other sessions' work interleaves — that is
//     the determinism contract the replay tests pin.
package fleet

import (
	"fmt"
	"sync"

	"origin/internal/dnn"
	"origin/internal/ensemble"
	"origin/internal/experiments"
	"origin/internal/synth"
	"origin/internal/tensor"
)

// Model is the immutable, shareable half of a deployment: one trained
// System plus a pool of cloned net sets for concurrent inference. All
// fields are read-only after construction; every mutable artefact a session
// needs is cloned out of it. A model serves exactly one precision, fixed
// when it is built: NewModel serves the float nets, and the registry
// compiles a second model serving their int8 form (Config.Quantized).
type Model struct {
	// Name is the profile name the model was built for.
	Name string
	// System is the trained deployment. Treat as deeply read-only: nets,
	// matrix, accuracy table and rank table are shared by every session.
	System *experiments.System
	// Window is the per-sensor IMU window length (samples) the nets expect.
	Window int

	nets sync.Pool // of []predictor — one clone per sensor, per borrow
}

// predictor is the inference surface window scoring uses: every window is
// scored through the batched kernel as a batch of one. *dnn.Network and
// *dnn.QuantizedNetwork both implement it.
type predictor interface {
	PredictBatch(x *tensor.Tensor) (classes []int, probs *tensor.Tensor)
}

// NewModel wraps a trained System for float serving. The System must not
// be mutated afterwards.
func NewModel(name string, sys *experiments.System) *Model {
	if sys == nil {
		panic("fleet: NewModel requires a System")
	}
	return newModel(name, sys, func() []predictor {
		nets := sys.CloneNetsB2()
		set := make([]predictor, len(nets))
		for i, n := range nets {
			set[i] = n
		}
		return set
	})
}

// newInt8Model compiles every per-location net of m to integer stages and
// returns a model serving the same System through them. A pooled clone
// shares the frozen int8 weights and owns only per-borrow scratch, so a
// borrow is cheap.
func newInt8Model(m *Model) (*Model, error) {
	qs := make([]*dnn.QuantizedNetwork, len(m.System.NetsB2))
	for i, n := range m.System.NetsB2 {
		q, err := dnn.NewQuantizedNetwork(n)
		if err != nil {
			return nil, fmt.Errorf("fleet: int8 compile of sensor %d net: %w", i, err)
		}
		qs[i] = q
	}
	return newModel(m.Name, m.System, func() []predictor {
		set := make([]predictor, len(qs))
		for i, q := range qs {
			set[i] = q.Clone()
		}
		return set
	}), nil
}

func newModel(name string, sys *experiments.System, cloneNets func() []predictor) *Model {
	m := &Model{Name: name, System: sys, Window: experiments.Window}
	m.nets.New = func() any { return cloneNets() }
	return m
}

// Classes returns the number of activity classes.
func (m *Model) Classes() int { return m.System.Profile.NumClasses() }

// Sensors returns the number of sensor locations.
func (m *Model) Sensors() int { return len(m.System.NetsB2) }

// Activity returns the class label for a class id, or "abstain" for -1.
func (m *Model) Activity(class int) string {
	if class < 0 || class >= m.Classes() {
		return "abstain"
	}
	return m.System.Profile.Activities[class]
}

// NewMatrix returns a fresh per-session confidence matrix: an independent
// clone of the registry's initial matrix.
func (m *Model) NewMatrix() *ensemble.Matrix { return m.System.Matrix.Clone() }

// acquireNets borrows a cloned net set for one inference; return it with
// releaseNets. The registry's own nets never run Forward (layers cache
// activations and are not safe for concurrent use).
func (m *Model) acquireNets() []predictor { return m.nets.Get().([]predictor) }

func (m *Model) releaseNets(nets []predictor) { m.nets.Put(nets) }

// windowScore is the outcome of scoring one raw window.
type windowScore struct {
	class int
	conf  float64
}

// scoreWindows scores the raw windows of one round on the caller's
// goroutine: it borrows one pooled net set and runs each window through its
// sensor's net as a one-window PredictBatch. scores[i] belongs to inputs[i]
// (vote inputs leave their entry zero); a round without windows borrows
// nothing and returns nil. Every input must already be validated against
// the model geometry.
func (m *Model) scoreWindows(inputs []SensorInput) []windowScore {
	var scores []windowScore
	var nets []predictor
	for i, in := range inputs {
		if in.Window == nil {
			continue
		}
		if nets == nil {
			nets = m.acquireNets()
			scores = make([]windowScore, len(inputs))
		}
		// The probabilities alias the net's scratch: read them before the
		// next window runs on the same net.
		classes, probs := nets[in.Sensor].PredictBatch(in.Window.Reshape(1, synth.Channels, m.Window))
		scores[i] = windowScore{class: classes[0], conf: probs.Row(0).Variance()}
	}
	if nets != nil {
		m.releaseNets(nets)
	}
	return scores
}

// BuildFunc produces a served model for a profile name. The default
// builder trains (or loads from cache) via experiments.BuildSystem.
type BuildFunc func(profile string) (*Model, error)

// DefaultBuild is the production model builder: it validates the profile
// name up front (BuildSystem panics on unknown names) and then trains or
// loads the full System.
func DefaultBuild(profile string) (*Model, error) {
	if !experiments.KnownProfile(profile) {
		return nil, fmt.Errorf("fleet: unknown profile %q (want one of %v)", profile, experiments.ProfileNames())
	}
	return NewModel(profile, experiments.BuildSystem(profile)), nil
}

// Registry builds and caches one Model per profile, plus its int8 form on
// first request. Builds are single-flight per profile: concurrent Get calls
// for the same profile share one build, and a build for one profile never
// blocks lookups of another (model builds can take minutes).
type Registry struct {
	build BuildFunc

	mu      sync.Mutex
	entries map[string]*registryEntry
}

type registryEntry struct {
	once  sync.Once
	model *Model
	err   error

	int8Once  sync.Once
	int8Model *Model
	int8Err   error
}

// NewRegistry returns a registry using the given builder (nil selects
// DefaultBuild).
func NewRegistry(build BuildFunc) *Registry {
	if build == nil {
		build = DefaultBuild
	}
	return &Registry{build: build, entries: map[string]*registryEntry{}}
}

// Get returns the model for a profile, building it on first use.
func (r *Registry) Get(profile string) (*Model, error) {
	e := r.entry(profile)
	return e.model, e.err
}

// getInt8 returns the int8 form of a profile's model, compiling it from the
// float model on first use.
func (r *Registry) getInt8(profile string) (*Model, error) {
	e := r.entry(profile)
	if e.err != nil {
		return nil, e.err
	}
	e.int8Once.Do(func() { e.int8Model, e.int8Err = newInt8Model(e.model) })
	return e.int8Model, e.int8Err
}

// entry returns a profile's cache entry with its float model built.
func (r *Registry) entry(profile string) *registryEntry {
	r.mu.Lock()
	e, ok := r.entries[profile]
	if !ok {
		e = &registryEntry{}
		r.entries[profile] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.model, e.err = r.build(profile) })
	return e
}

// NumSensors is the sensor count every current profile deploys (the
// paper's chest / left-ankle / right-wrist network).
const NumSensors = synth.NumLocations
