package serve

import (
	"container/list"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Resume cache: disconnection-survivable stream session state.
//
// A stream connection's window-assembly state (the per-sensor ring buffers
// and sequence numbers) used to live and die with the connection, so every
// reconnect silently restarted window assembly. The cache decouples the two:
// state is keyed by session id, owned by at most one live connection at a
// time, and parked — bounded in count and TTL'd — when that connection dies.
// A client reconnecting with the resume token its hello-ack carried gets the
// state reattached exactly where it left off; the per-sensor sequence acks
// in the new hello-ack tell it which frames to re-send, and the assembler's
// dup discipline drops any overlap, so a re-sent end-of-round frame can
// never classify twice.
//
// The entry also records the last classified result of the stream lineage.
// A closed-loop client has at most one result in flight, so when the
// connection dies between classify and the result push, the next hello-ack
// (NextSlot/LastClass) is enough to recover it. Pipelined clients that keep
// several rounds in flight can still lose all but the newest unpushed
// result; the resume guarantee is scoped to closed-loop use.
type resumeCache struct {
	ttl     time.Duration // <= 0 disables parking entirely
	cap     int           // max parked (detached) entries
	metrics *Metrics
	now     func() time.Time

	mu      sync.Mutex
	entries map[string]*streamState
	parked  *list.List // *streamState, oldest park first

	tokens atomic.Int64
}

// streamState is one session's stream-lineage state: the window assembler,
// the resume token, and the last classified result. While a connection owns
// it, owner/done are set; parked entries have owner nil and sit in the
// parked list until resumed, expired, or displaced by the cap.
type streamState struct {
	session string
	token   string
	asm     *StreamAssembler

	// Last result classified over this lineage, for lost-push recovery.
	lastSlot  int
	lastClass int
	hasLast   bool

	owner    net.Conn      // live owning connection, nil while parked
	done     chan struct{} // closed when the owning handler releases the state
	parkedAt time.Time
	elem     *list.Element // position in parked, nil while attached
}

func newResumeCache(ttl time.Duration, capacity int, metrics *Metrics, now func() time.Time) *resumeCache {
	if now == nil {
		now = time.Now
	}
	return &resumeCache{
		ttl:     ttl,
		cap:     capacity,
		metrics: metrics,
		now:     now,
		entries: map[string]*streamState{},
		parked:  list.New(),
	}
}

// attach acquires the session's stream state for conn. A fresh hello (no
// token) discards any previous state and starts a new lineage; a hello with
// a token resumes the parked state or fails with a resume miss. If another
// connection still owns the state (a half-open predecessor the client
// outran), it is closed and waited for first, so state hand-off is strictly
// serialized.
//
// restore is the cross-replica fallback: on a token that matches no local
// parked state, it may rebuild the state from the shared state store
// (returning nil when there is no store or it has nothing usable). A hit
// counts as StreamStoreResumes — the "migrated resume" the shard drill
// gates on — and replaces whatever stale local entry existed.
//
// curSlot is the session core's next slot (from the manager, which has
// already synced with the state store). A locally parked lineage whose last
// classified slot is behind curSlot-1 is stale — the session advanced on
// another replica while parked here, the shape rebalancing produces when
// ownership bounces back — and must be replaced from the store, never
// resumed.
func (r *resumeCache) attach(session, token string, sensors, window, curSlot int, conn net.Conn, restore func() *streamState) (st *streamState, resumed bool, err error) {
	for {
		r.mu.Lock()
		r.sweepLocked()
		e := r.entries[session]
		if e == nil || e.owner == nil {
			defer r.mu.Unlock()
			if token == "" {
				// Fresh lineage: drop whatever was parked.
				if e != nil {
					r.removeLocked(e)
				}
				st = &streamState{
					session: session,
					token:   fmt.Sprintf("rt-%d", r.tokens.Add(1)),
					asm:     NewStreamAssembler(sensors, window),
					owner:   conn,
					done:    make(chan struct{}),
				}
				r.entries[session] = st
				return st, false, nil
			}
			stale := e != nil && e.token == token && e.hasLast && e.lastSlot < curSlot-1
			if e == nil || e.token != token || stale {
				if st = restore(); st != nil && st.token == token {
					if e != nil {
						r.removeLocked(e)
					}
					st.owner = conn
					st.done = make(chan struct{})
					r.entries[session] = st
					r.metrics.StreamStoreResumes.Add(1)
					return st, true, nil
				}
				r.metrics.StreamResumeMisses.Add(1)
				return nil, false, fmt.Errorf("no resumable state for session")
			}
			r.parked.Remove(e.elem)
			e.elem = nil
			e.owner = conn
			e.done = make(chan struct{})
			r.metrics.StreamResumes.Add(1)
			return e, true, nil
		}
		// A previous connection still owns the state (half-open, or its
		// handler is mid-classify). Kick it and wait for the hand-off.
		owner, done := e.owner, e.done
		r.mu.Unlock()
		owner.Close()
		<-done
	}
}

// release returns st to the cache when its owning handler exits. keep parks
// the state for a future resume (subject to TTL and cap); !keep discards it
// — the path for protocol violations, where the state is torn.
func (r *resumeCache) release(st *streamState, keep bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[st.session] == st && st.owner != nil {
		st.owner = nil
		if keep && r.ttl > 0 {
			st.parkedAt = r.now()
			st.elem = r.parked.PushBack(st)
			r.metrics.StreamParked.Add(1)
			for r.cap > 0 && r.parked.Len() > r.cap {
				r.expireLocked(r.parked.Front().Value.(*streamState))
			}
		} else {
			r.removeLocked(st)
		}
	}
	close(st.done)
}

// sweepLocked evicts parked entries whose TTL has run out.
func (r *resumeCache) sweepLocked() {
	if r.ttl <= 0 {
		return
	}
	cutoff := r.now().Add(-r.ttl)
	for e := r.parked.Front(); e != nil; {
		st := e.Value.(*streamState)
		if st.parkedAt.After(cutoff) {
			break // list is in park order; the rest are younger
		}
		e = e.Next()
		r.expireLocked(st)
	}
}

func (r *resumeCache) expireLocked(st *streamState) {
	r.removeLocked(st)
	r.metrics.StreamExpired.Add(1)
}

func (r *resumeCache) removeLocked(st *streamState) {
	if st.elem != nil {
		r.parked.Remove(st.elem)
		st.elem = nil
	}
	if r.entries[st.session] == st {
		delete(r.entries, st.session)
	}
}

// parkedCount reports the detached entries currently held (for /metrics).
func (r *resumeCache) parkedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	return r.parked.Len()
}
