package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/serve"
)

// httpConns is how many keep-alive connections carry the votes workload.
// With the stream workloads' one connection per wearer, the load never uses
// more than two connections or two sending goroutines.
const httpConns = 2

// stack is the serving stack under test, built in-process from the public
// constructors with cmd/origin-serve's defaults (float path, batch size 16,
// hold 0, queue 256), plus the benchmark's client connections.
type stack struct {
	wl      workload
	in      *inputs
	mgr     *fleet.Manager
	metrics *serve.Metrics
	httpSrv *http.Server
	stream  *serve.StreamServer
	serving sync.WaitGroup

	stateDir string
	rec      *recorder    // nil when untraced
	store    *tracedStore // traced store wrapper (stream-store, traced runs)
	conns    *connStats   // traced stream sockets

	httpAddr, streamAddr string

	ids      []string // session id per wearer
	wearerOf map[string]int
	next     []int // per wearer: next round index
	warmup   []*round
	https    []*httpSender
	streams  []*streamSender
	timers   []*preciseTimer // one per sender

	// heapBase is the live heap after the model load and before any
	// session exists (traced runs only).
	heapBase uint64
}

// newStack brings the stack up to serving: model load from the warm cache,
// listeners, one session and one client connection per wearer, and the
// warm-up rounds. Everything it does is set-up time.
func newStack(wl workload, in *inputs, seed int64, traced bool) (*stack, error) {
	st := &stack{wl: wl, in: in, metrics: &serve.Metrics{}, next: make([]int, wl.wearers), wearerOf: map[string]int{}}
	if traced {
		st.rec = &recorder{}
		st.conns = &connStats{}
	}
	var state fleet.StateStore
	if wl.store {
		dir, err := os.MkdirTemp("", "perfbench-state-")
		if err != nil {
			return nil, err
		}
		st.stateDir = dir
		fs, err := fleet.NewFileStateStore(dir)
		if err != nil {
			return nil, err
		}
		state = fs
		if traced {
			st.store = newTracedStore(fs, st.rec)
			state = st.store
		}
	}
	st.mgr = fleet.NewManager(fleet.Config{
		Shards: 8, MaxSessions: 4096, TTL: 30 * time.Minute, QueueDepth: 256,
		BatchSize: 16, BatchHold: 0, Quantized: false, State: state,
	})
	if _, err := st.mgr.Registry().Get(profile); err != nil {
		st.close()
		return nil, fmt.Errorf("load model: %w", err)
	}
	if traced {
		st.heapBase = liveHeap()
	}
	if err := st.listen(); err != nil {
		st.close()
		return nil, err
	}
	for w := 0; w < wl.wearers; w++ {
		s, err := st.mgr.Create(profile, loadgen.UserID(w), fleet.Opts{})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("create session: %w", err)
		}
		st.ids = append(st.ids, s.ID())
		st.wearerOf[s.ID()] = w
	}
	if err := st.dial(seed); err != nil {
		st.close()
		return nil, err
	}
	if err := st.makeTimers(); err != nil {
		st.close()
		return nil, err
	}
	st.warmup = schedule(wl.warmup, 0, wl.wearers, st.next)
	if _, _, err := st.runPhase(st.warmup, 0, false); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// listen starts both fronts on loopback, as origin-serve with -stream-addr.
func (st *stack) listen() error {
	var handler http.Handler = serve.New(serve.Config{Manager: st.mgr, RequestTimeout: 10 * time.Second, Metrics: st.metrics})
	if st.rec != nil {
		handler = tracedHandler{next: handler, rec: st.rec}
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.httpSrv = &http.Server{Handler: handler}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return err
	}
	if st.rec != nil {
		sl = &tracedListener{Listener: sl, rec: st.rec, stats: st.conns}
	}
	st.stream = serve.NewStreamServer(serve.StreamConfig{
		Manager: st.mgr, Metrics: st.metrics, RoundTimeout: 10 * time.Second,
		IdleTimeout: 5 * time.Minute, ResumeTTL: 2 * time.Minute, ResumeCap: 4096,
	})
	st.serving.Add(2)
	go func() {
		defer st.serving.Done()
		if err := st.httpSrv.Serve(hl); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http front: %v\n", err)
		}
	}()
	go func() {
		defer st.serving.Done()
		if err := st.stream.Serve(sl); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stream front: %v\n", err)
		}
	}()
	st.httpAddr, st.streamAddr = hl.Addr().String(), sl.Addr().String()
	return nil
}

// dial opens the client connections: two pipelined HTTP connections for
// the votes workload, one stream connection per wearer otherwise, opened in
// wearer order so the n-th accepted stream connection is wearer n's.
func (st *stack) dial(seed int64) error {
	if !st.wl.stream {
		for i := 0; i < httpConns; i++ {
			h, err := dialHTTP(st.httpAddr, st.ids, st.in)
			if err != nil {
				return err
			}
			st.https = append(st.https, h)
		}
		return nil
	}
	for w, id := range st.ids {
		s, err := dialStream(st.streamAddr, id, w, seed+int64(w)*1_000_003)
		if err != nil {
			return err
		}
		st.streams = append(st.streams, s)
	}
	return nil
}

// senders is the number of sending goroutines (one per connection).
func (st *stack) senders() int {
	if st.wl.stream {
		return len(st.streams)
	}
	return len(st.https)
}

func (st *stack) makeTimers() error {
	for i := 0; i < st.senders(); i++ {
		t, err := newPreciseTimer()
		if err != nil {
			return err
		}
		st.timers = append(st.timers, t)
	}
	return nil
}

// runPhase sends a phase's rounds open-loop and waits for every answer.
// stopAt, when positive, abandons rounds not yet sent by then (an
// overloaded ladder step). It returns the phase start, which the rounds'
// times are offsets from, and for a traced phase the spans the wrappers
// recorded during it.
func (st *stack) runPhase(rounds []*round, stopAt time.Duration, traced bool) ([]span, time.Time, error) {
	if err := st.in.fill(rounds); err != nil {
		return nil, time.Time{}, err
	}
	parts := split(rounds, st.senders())
	start := time.Now()
	if traced {
		st.rec.start(start)
	}
	errs := make(chan error, 2*len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		clk := wallClock{start: start, timer: st.timers[i]}
		var t transport
		if st.wl.stream {
			s := st.streams[i]
			s.clk = clk
			t = s
		} else {
			h := st.https[i]
			h.begin(len(part), clk)
			h.setDeadline(time.Now().Add(2*phaseLength(rounds) + time.Minute))
			t = h
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- h.receive()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := drive(part, clk, t, stopAt)
			if h, ok := t.(*httpSender); ok {
				h.end()
			}
			errs <- err
		}()
	}
	wg.Wait()
	for _, h := range st.https {
		h.fifo = nil // its buffer holds a slot per round of the phase
	}
	var spans []span
	if traced {
		spans = st.rec.stop()
	}
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, start, err
		}
	}
	for _, r := range rounds {
		r.frames = nil // payloads are spent; keep them out of the heap figures
	}
	return spans, start, nil
}

// phaseLength is the due time of a phase's last round.
func phaseLength(rounds []*round) time.Duration {
	if len(rounds) == 0 {
		return 0
	}
	return rounds[len(rounds)-1].due
}

// uplink is the bytes the clients have written so far, HTTP headers and
// stream framing included.
func (st *stack) uplink() int64 {
	var n int64
	for _, h := range st.https {
		n += h.uplink
	}
	for _, s := range st.streams {
		n += s.client.Stats().UplinkBytes
	}
	return n
}

// reconnects counts stream reconnects, which a fault-free run never needs.
func (st *stack) reconnects() int {
	n := 0
	for _, s := range st.streams {
		n += s.client.Stats().Reconnects
	}
	return n
}

// close tears everything down and waits for the fronts to stop.
func (st *stack) close() {
	for _, h := range st.https {
		h.close()
	}
	for _, s := range st.streams {
		s.close()
	}
	for _, t := range st.timers {
		t.close()
	}
	st.https, st.streams, st.timers = nil, nil, nil
	if st.httpSrv != nil {
		st.httpSrv.Close()
	}
	if st.stream != nil {
		st.stream.Close()
	}
	st.serving.Wait()
	if st.mgr != nil {
		st.mgr.Close()
	}
	if st.stateDir != "" {
		os.RemoveAll(st.stateDir)
	}
}
