package fleet

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"origin/internal/host"
	"origin/internal/obs"
	"origin/internal/sensor"
	"origin/internal/synth"
	"origin/internal/tensor"
)

// ErrInvalid marks a malformed classify request (unknown sensor, class out
// of range, wrong window geometry). The HTTP layer maps it to 400.
var ErrInvalid = errors.New("invalid request")

// Opts are the per-session knobs a client may set at session creation.
type Opts struct {
	// StaleLimit, if positive, drops recalled votes older than this many
	// slots (0 keeps them indefinitely — the paper's aggressive recall).
	StaleLimit int
	// Quorum, if positive, is the minimum number of valid votes required
	// before the ensemble classifies; with fewer the session abstains (-1).
	Quorum int
	// Freeze disables online confidence-matrix adaptation (the Fig. 6
	// "static" ablation); the default is the paper's adaptive behaviour.
	Freeze bool
}

// Validate checks the options against a model's geometry.
func (o Opts) Validate(m *Model) error {
	if o.StaleLimit < 0 {
		return fmt.Errorf("%w: negative stale limit %d", ErrInvalid, o.StaleLimit)
	}
	if o.Quorum < 0 || o.Quorum > m.Sensors() {
		return fmt.Errorf("%w: quorum %d outside [0,%d]", ErrInvalid, o.Quorum, m.Sensors())
	}
	return nil
}

// SensorInput is one sensor's contribution to a classify request: either a
// raw IMU window (classified server-side on the model's nets) or a
// precomputed softmax vote (class + softmax-variance confidence), matching
// the two payloads a real deployment's uplink could carry.
type SensorInput struct {
	// Sensor is the voter index (0..model.Sensors()-1).
	Sensor int
	// Window, when non-nil, is the (synth.Channels × model.Window) IMU
	// window to classify. When nil, Class/Confidence are used directly.
	Window *tensor.Tensor
	// Class is the precomputed vote's activity class.
	Class int
	// Confidence is the precomputed vote's softmax-variance score.
	Confidence float64
}

// VoteInfo echoes one fresh vote that entered a classify round.
type VoteInfo struct {
	Sensor     int     `json:"sensor"`
	Class      int     `json:"class"`
	Confidence float64 `json:"confidence"`
}

// ClassifyResult is one serving decision.
type ClassifyResult struct {
	// Slot is the session-local round index (one per classify call).
	Slot int `json:"slot"`
	// Class is the fused classification (-1 = abstained).
	Class int `json:"class"`
	// Activity is the class label ("abstain" for -1).
	Activity string `json:"activity"`
	// Votes echoes the fresh votes, in request order, after server-side
	// inference resolved any windows.
	Votes []VoteInfo `json:"votes,omitempty"`
}

// SessionInfo is a read-only session snapshot.
type SessionInfo struct {
	ID      string `json:"id"`
	User    int64  `json:"user"`
	Profile string `json:"profile"`
	// Slots counts classify rounds served; Received the sensor results
	// ingested; Adapts the online confidence-matrix updates applied.
	Slots    int `json:"slots"`
	Received int `json:"received"`
	Adapts   int `json:"adapts"`
}

// Session holds one wearer's host-side serving state: the recall store and
// anticipation (via host.Device) and a private clone of the confidence
// matrix that adapts online to this user. A mutex serialises requests, so
// a session's classification sequence depends only on its own request
// order — concurrency across sessions cannot perturb it.
type Session struct {
	id    string
	user  int64
	model *Model
	opts  Opts

	mu   sync.Mutex
	dev  *host.Device
	slot int
	tel  *obs.Telemetry

	// lru is maintained by the Manager's shard (guarded by the shard lock,
	// not s.mu); lastUsed is the shard's eviction clock for this session.
	lru      *list.Element
	lastUsed int64 // unix nanos, guarded by the owning shard's lock

	// wmu orders the session's state-store writes against Manager.Delete:
	// a write runs under wmu and is dropped once deleted is set, and Delete
	// sets deleted under wmu before it removes the stored snapshot.
	wmu     sync.Mutex
	deleted bool
}

// NewSession builds a standalone session over a model. The Manager calls
// this internally; it is exported (via the facade) so single-user callers
// and replay tests can drive the identical state machine without a server.
func NewSession(id string, user int64, m *Model, o Opts) (*Session, error) {
	if err := o.Validate(m); err != nil {
		return nil, err
	}
	tel := obs.NewTelemetry(0)
	dev := host.New(host.Config{
		Sensors:    m.Sensors(),
		Classes:    m.Classes(),
		Recall:     true,
		Agg:        host.AggWeighted,
		Matrix:     m.NewMatrix(),
		Adaptive:   !o.Freeze,
		StaleLimit: o.StaleLimit,
		Quorum:     o.Quorum,
	})
	dev.Attach(tel)
	return &Session{id: id, user: user, model: m, opts: o, dev: dev, tel: tel}, nil
}

// newSessionFromState rebuilds a session from a decoded snapshot so a
// replica can adopt a session another replica started. The snapshot's
// profile must match the model it is installed onto; every device field is
// re-validated against the live geometry by host.Device.Restore.
func newSessionFromState(st SessionState, m *Model) (*Session, error) {
	if st.Profile != m.Name {
		return nil, fmt.Errorf("%w: snapshot for profile %q cannot restore onto %q", ErrInvalid, st.Profile, m.Name)
	}
	s, err := NewSession(st.ID, st.User, m, st.Opts)
	if err != nil {
		return nil, err
	}
	if err := s.dev.Restore(st.Device); err != nil {
		return nil, err
	}
	if err := s.dev.Matrix().CopyFrom(st.Matrix); err != nil {
		return nil, err
	}
	if st.Slot < 0 {
		return nil, fmt.Errorf("%w: negative snapshot slot", ErrInvalid)
	}
	s.slot = st.Slot
	s.tel.Slots = st.Counters.Slots
	s.tel.FreshVotes = st.Counters.FreshVotes
	s.tel.RecallVotes = st.Counters.RecallVotes
	s.tel.AdaptationUpdates = st.Counters.AdaptationUpdates
	s.tel.Faults.QuorumAbstentions = st.Counters.QuorumAbstentions
	return s, nil
}

// State snapshots the session under its lock. The attachment is the stream
// front's opaque lineage section (nil for HTTP-only sessions); fleet stores
// it verbatim. The returned snapshot shares nothing with live session state.
func (s *Session) State(attachment []byte) SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateLocked(append([]byte(nil), attachment...))
}

// stateLocked snapshots the session. Callers hold s.mu.
func (s *Session) stateLocked(attachment []byte) SessionState {
	tot := s.tel.Totals()
	return SessionState{
		ID:      s.id,
		User:    s.user,
		Profile: s.model.Name,
		Opts:    s.opts,
		Slot:    s.slot,
		Device:  s.dev.State(),
		Matrix:  s.dev.Matrix().Clone(),
		Counters: SessionCounters{
			Slots:             tot.Slots,
			FreshVotes:        tot.FreshVotes,
			RecallVotes:       tot.RecallVotes,
			AdaptationUpdates: tot.AdaptationUpdates,
			QuorumAbstentions: tot.Faults.QuorumAbstentions,
		},
		Attachment: attachment,
	}
}

// Slot returns the number of classify rounds served so far — the version a
// snapshot of this session would carry.
func (s *Session) Slot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slot
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Model returns the shared model the session classifies against.
func (s *Session) Model() *Model { return s.model }

// validate checks one classify input against the model geometry.
func (s *Session) validate(in SensorInput) error {
	m := s.model
	if in.Sensor < 0 || in.Sensor >= m.Sensors() {
		return fmt.Errorf("%w: sensor %d outside [0,%d)", ErrInvalid, in.Sensor, m.Sensors())
	}
	if in.Window != nil {
		if in.Window.Dims() != 2 || in.Window.Dim(0) != synth.Channels || in.Window.Dim(1) != m.Window {
			return fmt.Errorf("%w: window shape %v, want (%d,%d)", ErrInvalid, in.Window.Shape(), synth.Channels, m.Window)
		}
		return nil
	}
	if in.Class < 0 || in.Class >= m.Classes() {
		return fmt.Errorf("%w: class %d outside [0,%d)", ErrInvalid, in.Class, m.Classes())
	}
	if in.Confidence < 0 {
		return fmt.Errorf("%w: negative confidence %v", ErrInvalid, in.Confidence)
	}
	return nil
}

// Classify runs one serving round: every input becomes a fresh vote
// (windows are classified on pooled net clones first), sensors that sent
// nothing vote from the recall store, and the confidence-weighted ensemble
// fuses them. The round follows the simulator's per-slot order exactly —
// observe results, classify, move the anticipation to the fused opinion,
// then adapt the matrix when fresh votes arrived — so a serially replayed
// session reproduces a simulated host bit-for-bit.
//
// An empty input slice is a valid round: the session classifies from
// recall alone and performs no adaptation (nothing fresh arrived).
func (s *Session) Classify(inputs []SensorInput) (ClassifyResult, error) {
	return s.classify(inputs, nil)
}

// classify runs one round. A non-nil snap receives the session's snapshot as
// of the end of the round, taken in the round's own lock hold so no other
// round can land between the two.
func (s *Session) classify(inputs []SensorInput, snap *SessionState) (ClassifyResult, error) {
	for i, in := range inputs {
		if err := s.validate(in); err != nil {
			return ClassifyResult{}, err
		}
		// One vote per sensor per round: a duplicate would double-count one
		// location in the ensemble fusion and corrupt its recall entry. The
		// scan is quadratic but rounds carry at most a handful of sensors.
		for _, prev := range inputs[:i] {
			if prev.Sensor == in.Sensor {
				return ClassifyResult{}, fmt.Errorf("%w: duplicate sensor %d in round", ErrInvalid, in.Sensor)
			}
		}
	}
	// Score raw windows before taking the session lock: scoring is a pure
	// function of (model, sensor, window), so it neither reads nor writes
	// session state, and resolving it first keeps forward passes out of the
	// lock hold.
	scores := s.model.scoreWindows(inputs)

	s.mu.Lock()
	defer s.mu.Unlock()

	slot := s.slot
	votes := make([]VoteInfo, 0, len(inputs))
	for i, in := range inputs {
		class, conf := in.Class, in.Confidence
		if in.Window != nil {
			class, conf = scores[i].class, scores[i].conf
		}
		s.dev.Observe(&sensor.Result{Sensor: in.Sensor, Class: class, Confidence: conf, Slot: slot})
		votes = append(votes, VoteInfo{Sensor: in.Sensor, Class: class, Confidence: conf})
	}
	final := s.dev.Classify(slot)
	s.dev.NoteFinal(final)
	if len(inputs) > 0 {
		s.dev.Adapt(slot, final)
	}
	s.slot++
	s.tel.Slots++ // one serving round = one telemetry slot
	if snap != nil {
		*snap = s.stateLocked(nil)
	}
	return ClassifyResult{
		Slot:     slot,
		Class:    final,
		Activity: s.model.Activity(final),
		Votes:    votes,
	}, nil
}

// Info returns a snapshot of the session's counters.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		ID:       s.id,
		User:     s.user,
		Profile:  s.model.Name,
		Slots:    s.slot,
		Received: s.dev.Received(),
		Adapts:   s.dev.AdaptsApplied(),
	}
}

// Telemetry returns a copy of the session's accumulated vote/adaptation
// telemetry totals.
func (s *Session) Telemetry() obs.Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tel.Totals()
}
