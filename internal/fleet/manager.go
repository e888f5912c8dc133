package fleet

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"origin/internal/obs"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound marks a lookup of an unknown (or evicted) session → 404.
	ErrNotFound = errors.New("session not found")
	// ErrSaturated marks a classify rejected because every running slot is
	// busy and the waiting line is full → 429 (shed load rather than queue
	// unboundedly).
	ErrSaturated = errors.New("work queue saturated")
	// ErrShutdown marks a request arriving after Close began → 503.
	ErrShutdown = errors.New("manager shut down")
)

// Config assembles a Manager.
type Config struct {
	// Registry supplies models (nil builds a production registry).
	Registry *Registry
	// Shards is the session-map shard count (default 8). Sharding keeps
	// session lookup contention independent of the session count.
	Shards int
	// MaxSessions caps live sessions (default 4096). The cap is enforced
	// per shard (MaxSessions/Shards, min 1): a full shard evicts its
	// least-recently-used session to admit a new one.
	MaxSessions int
	// TTL, when positive, evicts sessions idle longer than this (checked
	// lazily on create and by EvictExpired sweeps).
	TTL time.Duration
	// Workers is the number of running slots: at most this many classify
	// rounds run at once, each on its caller's goroutine, scoring its own
	// windows (default obs.DefaultWorkers(), one slot per core).
	// QueueDepth bounds the callers waiting for a slot (default 256); a
	// caller beyond it is shed with ErrSaturated.
	QueueDepth int
	Workers    int
	// BatchSize and BatchHold are read by no code: every round scores its
	// own windows. They exist only so that the struct literal in
	// perfbench/stack.go compiles, and go with its next change.
	BatchSize int
	BatchHold time.Duration
	// Quantized routes window scoring through the int8 inference hot path:
	// sessions are served by the int8 form of each profile's model, compiled
	// from the float nets the first time the manager needs it (Create fails
	// if a net cannot be expressed in integer stages). int8 vs float accuracy
	// parity is gated separately (see internal/experiments and the dnn
	// parity tests).
	Quantized bool
	// Now is the eviction clock (default time.Now; injectable for tests).
	Now func() time.Time
	// State, when non-nil, externalizes session state: the store holds the
	// authoritative snapshot of every session and this replica's in-memory
	// sessions become a validated cache over it. Create persists the initial
	// snapshot, Classify persists one snapshot per classified round before
	// it returns, and Get restores from the store whenever it holds a newer
	// version than local memory — which is how a session migrates to this
	// replica after a shard-map change or a peer death.
	State StateStore
}

// Metrics is the serving-side counter set, updated atomically on the hot
// path and rendered by GET /metrics.
type Metrics struct {
	SessionsCreated  atomic.Int64
	SessionsEvicted  atomic.Int64
	SessionsClosed   atomic.Int64
	RequestsAccepted atomic.Int64
	RequestsShed     atomic.Int64
	RequestsDone     atomic.Int64
	// WindowsScored counts raw windows scored server-side, one forward
	// pass each.
	WindowsScored atomic.Int64
	// SessionsRestored counts sessions rebuilt from the state store — each
	// one is a migration this replica absorbed.
	SessionsRestored atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of the serving counters plus the
// two gauges (live sessions, callers waiting for a running slot).
// WindowsBatched and BatchFlushes both carry Metrics.WindowsScored: each
// window is one forward pass, so their ratio, the mean batch size
// perfbench/layers.go reports, is 1.
type MetricsSnapshot struct {
	SessionsActive   int   `json:"sessionsActive"`
	SessionsCreated  int64 `json:"sessionsCreated"`
	SessionsEvicted  int64 `json:"sessionsEvicted"`
	SessionsClosed   int64 `json:"sessionsClosed"`
	RequestsAccepted int64 `json:"requestsAccepted"`
	RequestsShed     int64 `json:"requestsShed"`
	RequestsDone     int64 `json:"requestsDone"`
	QueueDepth       int   `json:"queueDepth"`
	WindowsBatched   int64 `json:"windowsBatched"`
	BatchFlushes     int64 `json:"batchFlushes"`
	SessionsRestored int64 `json:"sessionsRestored"`
}

// shard is one slice of the session map with its own lock and LRU order
// (front = most recently used).
type shard struct {
	mu       sync.Mutex
	sessions map[string]*Session
	order    *list.List // of *Session
}

// Manager is the fleet session service: a sharded session map with LRU/TTL
// eviction over a shared model registry, plus classify admission (bounded
// running slots and a bounded waiting line). It is safe for concurrent use.
type Manager struct {
	cfg      Config
	reg      *Registry
	shards   []*shard
	metrics  Metrics
	active   atomic.Int64
	nextID   atomic.Int64
	shutdown atomic.Bool

	// Classify admission: slots holds one token per running round, waiting
	// counts callers blocked for a slot, and rounds tracks every admitted
	// caller so Close can wait them out. admitMu orders the shutdown check
	// and rounds.Add against Close.
	slots   chan struct{}
	waiting atomic.Int64
	rounds  sync.WaitGroup
	admitMu sync.RWMutex

	// Pressure window (SetPressure), read atomically on the classify path.
	pressureDelayNs   atomic.Int64
	pressureShedEvery atomic.Int64
	pressureCounter   atomic.Int64

	retiredMu sync.Mutex
	retired   obs.Telemetry // telemetry of evicted/closed sessions
}

// Pressure is a serve-side stress window a scenario driver can open and
// close mid-run: slow rounds (injected per-round latency, backing the
// waiting line up toward saturation) and forced shed (a deterministic
// fraction of classifies rejected as if the line were full). Both act on the
// classify path only — session create/get/delete stay unpressured, matching
// a real overload where inference capacity is the bottleneck.
type Pressure struct {
	// WorkerDelay is injected latency per classify round, spent after the
	// round takes its running slot (so it occupies the slot exactly like
	// genuinely slow inference would).
	WorkerDelay time.Duration
	// ShedEvery, when positive, force-sheds every ShedEvery-th classify —
	// counted manager-wide across sessions — before it waits for a slot,
	// surfacing as ErrSaturated/429 to the caller. 1 sheds everything.
	ShedEvery int64
}

// SetPressure swaps the pressure window for classifies submitted from now
// on. The zero Pressure closes the window. The forced-shed counter is NOT
// reset by reconfiguration, so reopening a window mid-run continues the
// every-Nth cadence rather than restarting it.
func (m *Manager) SetPressure(p Pressure) error {
	if p.WorkerDelay < 0 {
		return fmt.Errorf("fleet: negative pressure worker delay %v", p.WorkerDelay)
	}
	if p.ShedEvery < 0 {
		return fmt.Errorf("fleet: negative pressure shed-every %d", p.ShedEvery)
	}
	m.pressureDelayNs.Store(p.WorkerDelay.Nanoseconds())
	m.pressureShedEvery.Store(p.ShedEvery)
	return nil
}

// NewManager builds a manager.
func NewManager(cfg Config) *Manager {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry(nil)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 4096
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = obs.DefaultWorkers()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{cfg: cfg, reg: cfg.Registry, slots: make(chan struct{}, cfg.Workers)}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i] = &shard{sessions: map[string]*Session{}, order: list.New()}
	}
	return m
}

// perShardCap returns the session cap of one shard.
func (m *Manager) perShardCap() int {
	c := m.cfg.MaxSessions / len(m.shards)
	if c < 1 {
		c = 1
	}
	return c
}

// shardFor hashes a session id onto its shard (FNV-1a).
func (m *Manager) shardFor(id string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return m.shards[h%uint32(len(m.shards))]
}

// Create opens a session on the named profile for a user under a minted id
// ("s-N"). The model is fetched from the registry (building it on first
// use); a full shard evicts its least-recently-used session to make room.
// Minted ids already in use — locally, or in a state store that outlived
// an earlier process — are skipped, never adopted.
func (m *Manager) Create(profile string, user int64, o Opts) (*Session, error) {
	for {
		s, err := m.CreateWithID(fmt.Sprintf("s-%d", m.nextID.Add(1)), profile, user, o)
		if !errors.Is(err, ErrExists) {
			return s, err
		}
	}
}

// ErrExists marks a CreateWithID for an id already in use → 409.
var ErrExists = errors.New("session id already exists")

// CreateWithID opens a session under a caller-chosen id — the router tier
// assigns ids so a session's placement is a pure function of the id and the
// ring, independent of which replica minted it. The id must be non-empty,
// at most 64 bytes, and not already in use (locally or in the state store):
// of concurrent creates for one id, exactly one succeeds.
func (m *Manager) CreateWithID(id, profile string, user int64, o Opts) (*Session, error) {
	if id == "" || len(id) > 64 {
		return nil, fmt.Errorf("%w: session id must be 1..64 bytes", ErrInvalid)
	}
	if m.cfg.State != nil {
		if _, _, ok, err := m.cfg.State.Load(id); err != nil {
			return nil, err
		} else if ok {
			return nil, ErrExists
		}
	}
	if m.shutdown.Load() {
		return nil, ErrShutdown
	}
	model, err := m.Model(profile)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(id, user, model, o)
	if err != nil {
		return nil, err
	}
	if err := m.install(s, false); err != nil {
		return nil, err
	}
	m.metrics.SessionsCreated.Add(1)
	// Persist the slot-0 snapshot so the session is adoptable by another
	// replica even if this one dies before the first classified round.
	if m.cfg.State != nil {
		if err := m.put(s, s.State(nil)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// install links a session into its shard (evicting to make room). A same-id
// session already in the shard fails the install with ErrExists, unless
// replace is set: then it is unlinked WITHOUT retiring its telemetry — the
// incoming session's restored counters already include everything the
// replaced stale cache entry counted, so merging would double-count.
func (m *Manager) install(s *Session, replace bool) error {
	now := m.cfg.Now().UnixNano()
	sh := m.shardFor(s.id)
	sh.mu.Lock()
	if old, ok := sh.sessions[s.id]; ok {
		if !replace {
			sh.mu.Unlock()
			return ErrExists
		}
		delete(sh.sessions, old.id)
		sh.order.Remove(old.lru)
		old.lru = nil
		m.active.Add(-1)
	}
	m.evictExpiredLocked(sh, now)
	for len(sh.sessions) >= m.perShardCap() {
		m.evictLRULocked(sh)
	}
	s.lastUsed = now
	s.lru = sh.order.PushFront(s)
	sh.sessions[s.id] = s
	sh.mu.Unlock()
	m.active.Add(1)
	return nil
}

// getLocal returns a session from this replica's memory only, refreshing its
// LRU/TTL position. It never consults the state store.
func (m *Manager) getLocal(id string) (*Session, error) {
	sh := m.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	s.lastUsed = m.cfg.Now().UnixNano()
	sh.order.MoveToFront(s.lru)
	return s, nil
}

// Get returns a live session and refreshes its LRU/TTL position. With a
// state store configured, local memory is only a cache: Get validates it
// against the store's version and restores the newer snapshot when the store
// is ahead — the local copy went stale while another replica owned the
// session. A session found only in the store is restored the same way (the
// migration path after a shard-map change routes the session here).
func (m *Manager) Get(id string) (*Session, error) {
	s, lerr := m.getLocal(id)
	if m.cfg.State == nil {
		return s, lerr
	}
	blob, ver, ok, err := m.cfg.State.Load(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Nothing in the store. A local session without a store entry only
		// happens after an explicit Delete raced a Get; treat it as gone.
		return nil, ErrNotFound
	}
	if lerr == nil && int64(s.Slot()) >= ver {
		return s, nil
	}
	return m.restore(blob)
}

// restore rebuilds a session from a stored snapshot and installs it,
// replacing any stale local copy.
func (m *Manager) restore(blob []byte) (*Session, error) {
	if m.shutdown.Load() {
		return nil, ErrShutdown
	}
	st, err := DecodeSessionState(blob)
	if err != nil {
		return nil, err
	}
	model, err := m.Model(st.Profile)
	if err != nil {
		return nil, err
	}
	s, err := newSessionFromState(st, model)
	if err != nil {
		return nil, err
	}
	if err := m.install(s, true); err != nil {
		return nil, err
	}
	m.metrics.SessionsRestored.Add(1)
	return s, nil
}

// PersistSession writes the session's current snapshot (core state plus the
// given stream attachment) to the state store at version = slot, outside
// any round. A no-op without a store. The stream front calls it once per
// (re)connect so the resume token is stored before the client holds it;
// classified rounds are written by Classify itself.
func (m *Manager) PersistSession(id string, attachment []byte) error {
	if m.cfg.State == nil {
		return nil
	}
	s, err := m.getLocal(id)
	if err != nil {
		return err
	}
	return m.put(s, s.State(attachment))
}

// put writes one snapshot of s to the state store, unless Delete has closed
// s: then nothing is written and the caller gets ErrNotFound. The write runs
// under s.wmu and under no shard lock, so Delete waits out a write in flight
// and the entry it removes stays removed.
func (m *Manager) put(s *Session, st SessionState) error {
	blob, err := EncodeSessionState(st)
	if err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.deleted {
		return ErrNotFound
	}
	return m.cfg.State.Put(st.ID, int64(st.Slot), blob)
}

// StoredState loads and decodes a session's snapshot straight from the
// state store (ok=false when the store has none). The stream front uses it
// to recover its attachment when adopting a migrated session.
func (m *Manager) StoredState(id string) (SessionState, bool, error) {
	if m.cfg.State == nil {
		return SessionState{}, false, nil
	}
	blob, _, ok, err := m.cfg.State.Load(id)
	if err != nil || !ok {
		return SessionState{}, false, err
	}
	st, err := DecodeSessionState(blob)
	return st, err == nil, err
}

// Delete closes a session explicitly, retiring its telemetry and removing
// its stored snapshot (so no replica can resurrect it). A round of the
// session whose store write is in flight finishes that write first; a round
// that has not started its write yet writes nothing.
func (m *Manager) Delete(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		m.removeLocked(sh, s)
	}
	sh.mu.Unlock()
	if ok {
		s.wmu.Lock()
		s.deleted = true
		s.wmu.Unlock()
	}
	if m.cfg.State != nil {
		if !ok {
			_, _, ok, _ = m.cfg.State.Load(id)
		}
		if err := m.cfg.State.Delete(id); err != nil {
			return err
		}
	}
	if !ok {
		return ErrNotFound
	}
	m.metrics.SessionsClosed.Add(1)
	return nil
}

// removeLocked unlinks a session from its shard and folds its telemetry
// into the retired aggregate. Callers hold sh.mu.
func (m *Manager) removeLocked(sh *shard, s *Session) {
	delete(sh.sessions, s.id)
	sh.order.Remove(s.lru)
	s.lru = nil
	m.active.Add(-1)
	tel := s.Telemetry()
	m.retiredMu.Lock()
	m.retired.Merge(&tel)
	m.retiredMu.Unlock()
}

// evictLRULocked evicts the shard's least-recently-used session.
func (m *Manager) evictLRULocked(sh *shard) {
	back := sh.order.Back()
	if back == nil {
		return
	}
	m.removeLocked(sh, back.Value.(*Session))
	m.metrics.SessionsEvicted.Add(1)
}

// evictExpiredLocked evicts the shard's sessions idle past the TTL.
func (m *Manager) evictExpiredLocked(sh *shard, now int64) {
	if m.cfg.TTL <= 0 {
		return
	}
	cutoff := now - m.cfg.TTL.Nanoseconds()
	for back := sh.order.Back(); back != nil; back = sh.order.Back() {
		s := back.Value.(*Session)
		if s.lastUsed > cutoff {
			return // LRU order: everything further forward is fresher
		}
		m.removeLocked(sh, s)
		m.metrics.SessionsEvicted.Add(1)
	}
}

// EvictExpired sweeps every shard for TTL-expired sessions and returns how
// many were evicted. cmd/origin-serve runs this on a janitor ticker.
func (m *Manager) EvictExpired() int {
	before := m.metrics.SessionsEvicted.Load()
	now := m.cfg.Now().UnixNano()
	for _, sh := range m.shards {
		sh.mu.Lock()
		m.evictExpiredLocked(sh, now)
		sh.mu.Unlock()
	}
	return int(m.metrics.SessionsEvicted.Load() - before)
}

// Classify runs one classify round for a session on the calling goroutine:
// it looks the session up (refreshing its LRU position), waits for a running
// slot, and classifies. With every slot busy the caller waits in a bounded
// line; a full line fails fast with ErrSaturated, and a ctx that ends while
// the caller waits returns ctx.Err(); such a round never touches the session.
//
// With a state store, Classify is the one writer of a round's snapshot: it
// takes the snapshot in the round's own session-lock hold and puts it before
// returning. attach, when non-nil, builds the front's attachment for it from
// the round's result (called only with a store). A failed put fails the
// call; so does a Delete of the session that beat the put (ErrNotFound).
func (m *Manager) Classify(ctx context.Context, id string, inputs []SensorInput, attach func(ClassifyResult) []byte) (ClassifyResult, error) {
	if m.shutdown.Load() {
		return ClassifyResult{}, ErrShutdown
	}
	s, err := m.Get(id)
	if err != nil {
		return ClassifyResult{}, err
	}
	if every := m.pressureShedEvery.Load(); every > 0 &&
		m.pressureCounter.Add(1)%every == 0 {
		m.metrics.RequestsShed.Add(1)
		return ClassifyResult{}, ErrSaturated
	}
	if err := m.admit(ctx); err != nil {
		return ClassifyResult{}, err
	}
	defer m.release()
	m.metrics.RequestsAccepted.Add(1)
	if d := m.pressureDelayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	var st *SessionState
	if m.cfg.State != nil {
		st = new(SessionState)
	}
	res, err := s.classify(inputs, st)
	m.metrics.RequestsDone.Add(1)
	if err != nil {
		return res, err
	}
	for _, in := range inputs {
		if in.Window != nil {
			m.metrics.WindowsScored.Add(1)
		}
	}
	if st == nil {
		return res, nil
	}
	if attach != nil {
		st.Attachment = attach(res)
	}
	if err := m.put(s, *st); err != nil {
		return ClassifyResult{}, err
	}
	return res, nil
}

// admit takes a running slot for one round, waiting in line while every
// slot is busy. It fails with ErrShutdown once Close has begun, ErrSaturated
// when the line is full, or ctx.Err() when ctx ends first. On success the
// caller must release the slot.
func (m *Manager) admit(ctx context.Context) error {
	m.admitMu.RLock()
	if m.shutdown.Load() {
		m.admitMu.RUnlock()
		return ErrShutdown
	}
	m.rounds.Add(1)
	m.admitMu.RUnlock()
	select {
	case m.slots <- struct{}{}:
		return nil
	default:
	}
	defer m.waiting.Add(-1)
	if m.waiting.Add(1) > int64(m.cfg.QueueDepth) {
		m.rounds.Done()
		m.metrics.RequestsShed.Add(1)
		return ErrSaturated
	}
	select {
	case m.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		m.rounds.Done()
		return ctx.Err()
	}
}

// release frees the running slot admit took.
func (m *Manager) release() {
	<-m.slots
	m.rounds.Done()
}

// Registry exposes the model registry (e.g. for warm-up at startup).
func (m *Manager) Registry() *Registry { return m.reg }

// Model returns the model this manager serves for a profile: the
// registry's model, or its int8 form when Config.Quantized is set. The
// first call builds (and compiles) it, so a warm-up can call it at startup.
func (m *Manager) Model(profile string) (*Model, error) {
	if m.cfg.Quantized {
		return m.reg.getInt8(profile)
	}
	return m.reg.Get(profile)
}

// Snapshot returns the serving counters and gauges.
func (m *Manager) Snapshot() MetricsSnapshot {
	scored := m.metrics.WindowsScored.Load()
	return MetricsSnapshot{
		SessionsActive:   int(m.active.Load()),
		SessionsCreated:  m.metrics.SessionsCreated.Load(),
		SessionsEvicted:  m.metrics.SessionsEvicted.Load(),
		SessionsClosed:   m.metrics.SessionsClosed.Load(),
		RequestsAccepted: m.metrics.RequestsAccepted.Load(),
		RequestsShed:     m.metrics.RequestsShed.Load(),
		RequestsDone:     m.metrics.RequestsDone.Load(),
		QueueDepth:       int(m.waiting.Load()),
		WindowsBatched:   scored,
		BatchFlushes:     scored,
		SessionsRestored: m.metrics.SessionsRestored.Load(),
	}
}

// Telemetry returns the aggregated ensemble telemetry: retired sessions
// plus a snapshot of every live one.
func (m *Manager) Telemetry() obs.Telemetry {
	m.retiredMu.Lock()
	agg := m.retired
	m.retiredMu.Unlock()
	for _, sh := range m.shards {
		sh.mu.Lock()
		live := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			live = append(live, s)
		}
		sh.mu.Unlock()
		for _, s := range live {
			tel := s.Telemetry()
			agg.Merge(&tel)
		}
	}
	return agg
}

// Close stops accepting new sessions and classifications and waits for
// every admitted round — running, or waiting for a slot — to finish: the
// SIGTERM half of graceful shutdown.
func (m *Manager) Close() {
	m.admitMu.Lock()
	closed := m.shutdown.Swap(true)
	m.admitMu.Unlock()
	if closed {
		return
	}
	m.rounds.Wait()
}
