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
//     registry's own nets: each Model keeps a pool of cloned net sets and
//     classification borrows a set for the duration of one request.
//   - A Session serialises its own requests with a mutex; its
//     classification sequence depends only on the order of its own
//     requests, never on how other sessions' work interleaves — that is
//     the determinism contract the replay tests pin.
package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"origin/internal/dnn"
	"origin/internal/ensemble"
	"origin/internal/experiments"
	"origin/internal/synth"
)

// Model is the immutable, shareable half of a deployment: one trained
// System plus a pool of cloned net sets for concurrent inference. All
// fields are read-only after NewModel; every mutable artefact a session
// needs is cloned out of it.
type Model struct {
	// Name is the profile name the model was built for.
	Name string
	// System is the trained deployment. Treat as deeply read-only: nets,
	// matrix, accuracy table and rank table are shared by every session.
	System *experiments.System
	// Window is the per-sensor IMU window length (samples) the nets expect.
	Window int

	nets sync.Pool // of []*dnn.Network — B2 clones for concurrent Predict

	// Int8 serving path (opt-in via Config.Quantized / EnableInt8): the
	// per-location nets compiled to integer stages once, then cloned per
	// borrow — a clone shares the frozen int8 weights and owns only scratch.
	qonce sync.Once
	qerr  error
	qon   atomic.Bool
	qnets sync.Pool // of []*dnn.QuantizedNetwork
}

// NewModel wraps a trained System for serving. The System must not be
// mutated afterwards.
func NewModel(name string, sys *experiments.System) *Model {
	if sys == nil {
		panic("fleet: NewModel requires a System")
	}
	m := &Model{Name: name, System: sys, Window: experiments.Window}
	m.nets.New = func() any { return sys.CloneNetsB2() }
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
func (m *Model) acquireNets() []*dnn.Network { return m.nets.Get().([]*dnn.Network) }

func (m *Model) releaseNets(nets []*dnn.Network) { m.nets.Put(nets) }

// EnableInt8 compiles the int8 twin of every per-location net and switches
// the model's scorers onto the quantized hot path. Compilation happens once
// per model (idempotent, concurrency-safe); the first error is sticky so a
// model that cannot be expressed in integer stages never half-enables.
func (m *Model) EnableInt8() error {
	m.qonce.Do(func() {
		qs := make([]*dnn.QuantizedNetwork, len(m.System.NetsB2))
		for i, n := range m.System.NetsB2 {
			q, err := dnn.NewQuantizedNetwork(n)
			if err != nil {
				m.qerr = fmt.Errorf("fleet: int8 compile of sensor %d net: %w", i, err)
				return
			}
			qs[i] = q
		}
		m.qnets.New = func() any {
			c := make([]*dnn.QuantizedNetwork, len(qs))
			for i, q := range qs {
				c[i] = q.Clone()
			}
			return c
		}
		m.qon.Store(true)
	})
	return m.qerr
}

// Int8 reports whether the int8 inference path is enabled for this model.
func (m *Model) Int8() bool { return m.qon.Load() }

// acquireQNets borrows a cloned int8 net set; only valid after a successful
// EnableInt8. Clones share the frozen weights and own only per-borrow
// scratch, so a borrow is cheap and safe for concurrent use.
func (m *Model) acquireQNets() []*dnn.QuantizedNetwork {
	return m.qnets.Get().([]*dnn.QuantizedNetwork)
}

func (m *Model) releaseQNets(nets []*dnn.QuantizedNetwork) { m.qnets.Put(nets) }

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

// Registry builds and caches one Model per profile. Builds are
// single-flight per profile: concurrent Get calls for the same profile
// share one build, and a build for one profile never blocks lookups of
// another (model builds can take minutes).
type Registry struct {
	build BuildFunc

	mu      sync.Mutex
	entries map[string]*registryEntry
}

type registryEntry struct {
	once  sync.Once
	model *Model
	err   error
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
	r.mu.Lock()
	e, ok := r.entries[profile]
	if !ok {
		e = &registryEntry{}
		r.entries[profile] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.model, e.err = r.build(profile) })
	return e.model, e.err
}

// NumSensors is the sensor count every current profile deploys (the
// paper's chest / left-ankle / right-wrist network).
const NumSensors = synth.NumLocations
