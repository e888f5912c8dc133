package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"origin/internal/fleet"
	"origin/internal/serve"
)

// Config assembles an in-process Cluster.
type Config struct {
	// Replicas is the initial shard count (>= 1).
	Replicas int
	// Registry supplies models to every replica (required — replicas must
	// share one registry so a migrated session rebinds to the same model).
	Registry *fleet.Registry
	// Store is the shared session state store (required — it IS the
	// migration mechanism). Production deployments point every replica at
	// the same durable store; the drills use one MemStateStore.
	Store fleet.StateStore
	// QueueDepth/Workers size each replica's classify admission: waiting
	// line and running slots (defaults 64/2).
	QueueDepth int
	Workers    int
}

// Cluster is an in-process sharded serving tier: N replicas, each a full
// fleet.Manager with HTTP and stream fronts on real listeners, behind one
// Router. It exists for the shard-chaos drills — kill and join replicas
// mid-run and prove sessions migrate losslessly — and for the scenario
// engine's sharded phases.
type Cluster struct {
	cfg      Config
	router   *Router
	httpLn   net.Listener
	streamLn net.Listener
	httpSrv  *http.Server

	// mu guards replicas/dead/next: the chaos drills kill and join
	// replicas from loadgen's OnRound hook, which runs on user goroutines.
	mu       sync.Mutex
	replicas map[string]*replica
	dead     []*replica // killed replicas; their metrics still aggregate
	next     int        // name counter for joins
}

// replica is one shard: its own manager and serving fronts over the shared
// registry and store.
type replica struct {
	name     string
	mgr      *fleet.Manager
	metrics  *serve.Metrics
	httpLn   net.Listener
	streamLn net.Listener
	httpSrv  *http.Server
	ss       *serve.StreamServer
}

// New stands up the cluster: every replica listening, router in front.
func New(cfg Config) (*Cluster, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: need at least one replica")
	}
	if cfg.Registry == nil || cfg.Store == nil {
		return nil, fmt.Errorf("cluster: Registry and Store are required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	c := &Cluster{cfg: cfg, replicas: map[string]*replica{}}
	router, err := NewRouter()
	if err != nil {
		return nil, err
	}
	c.router = router
	for i := 0; i < cfg.Replicas; i++ {
		if _, err := c.AddReplica(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if c.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		c.Close()
		return nil, err
	}
	if c.streamLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		c.Close()
		return nil, err
	}
	c.httpSrv = &http.Server{Handler: c.router}
	go func() { _ = c.httpSrv.Serve(c.httpLn) }()
	go func() { _ = c.router.ServeStream(c.streamLn) }()
	return c, nil
}

// HTTPURL is the router's HTTP base URL — what clients use as BaseURL.
func (c *Cluster) HTTPURL() string { return "http://" + c.httpLn.Addr().String() }

// StreamAddr is the router's stream listener address.
func (c *Cluster) StreamAddr() string { return c.streamLn.Addr().String() }

// Router exposes the routing tier (membership, severed-splice counter).
func (c *Cluster) Router() *Router { return c.router }

// Replicas returns the live replica names, sorted.
func (c *Cluster) Replicas() []string { return c.router.Backends() }

// Owner reports which replica the ring assigns a session id to ("" when the
// ring is empty). It delegates to the router so callers that only hold the
// cluster (the scenario engine) can aim kills at a session's owner.
func (c *Cluster) Owner(session string) string { return c.router.Owner(session) }

// AddReplica starts a fresh replica and joins it to the ring. Sessions
// whose ownership moves to it are severed at the router and store-resume
// here on reconnect.
func (c *Cluster) AddReplica() (string, error) {
	c.mu.Lock()
	name := fmt.Sprintf("shard-%d", c.next)
	c.next++
	c.mu.Unlock()
	r := &replica{
		name:    name,
		metrics: &serve.Metrics{},
		mgr: fleet.NewManager(fleet.Config{
			Registry:   c.cfg.Registry,
			State:      c.cfg.Store,
			QueueDepth: c.cfg.QueueDepth,
			Workers:    c.cfg.Workers,
		}),
	}
	var err error
	if r.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		r.mgr.Close()
		return "", err
	}
	if r.streamLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		r.httpLn.Close()
		r.mgr.Close()
		return "", err
	}
	r.httpSrv = &http.Server{Handler: serve.New(serve.Config{
		Manager: r.mgr, Metrics: r.metrics, RequestTimeout: 30 * time.Second,
	})}
	r.ss = serve.NewStreamServer(serve.StreamConfig{
		Manager: r.mgr, Metrics: r.metrics,
		RoundTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute,
	})
	go func() { _ = r.httpSrv.Serve(r.httpLn) }()
	go func() { _ = r.ss.Serve(r.streamLn) }()
	c.mu.Lock()
	c.replicas[name] = r
	c.mu.Unlock()
	return name, c.router.AddBackend(Backend{
		Name:       name,
		HTTPURL:    "http://" + r.httpLn.Addr().String(),
		StreamAddr: r.streamLn.Addr().String(),
	})
}

// KillReplica kills a replica abruptly: listeners and live connections die
// mid-flight with no graceful persist or drain — the crash the drills
// simulate. The replica leaves the ring; its sessions' next connection
// store-resumes on the survivor that now owns them.
func (c *Cluster) KillReplica(name string) error {
	c.mu.Lock()
	r, ok := c.replicas[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no live replica %q", name)
	}
	delete(c.replicas, name)
	c.dead = append(c.dead, r)
	c.mu.Unlock()
	c.router.RemoveBackend(name)
	r.ss.Close()
	_ = r.httpSrv.Close()
	r.mgr.Close()
	return nil
}

// LeaveReplica decommissions a replica gracefully: it leaves the ring first
// (the router severs its spliced streams, so clients re-home immediately),
// then the serving fronts drain before the manager stops. Because every
// classified round is already persisted to the shared store, the only
// difference from KillReplica is that in-flight HTTP requests finish instead
// of dying — the planned-maintenance path next to the crash path.
func (c *Cluster) LeaveReplica(name string) error {
	c.mu.Lock()
	r, ok := c.replicas[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no live replica %q", name)
	}
	delete(c.replicas, name)
	c.dead = append(c.dead, r)
	c.mu.Unlock()
	c.router.RemoveBackend(name)
	r.ss.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.httpSrv.Shutdown(ctx)
	r.mgr.Close()
	return nil
}

// MigratedResumes sums store-served stream resumes across every replica
// that ever lived — each one is a session that crossed a shard boundary.
func (c *Cluster) MigratedResumes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, r := range c.replicas {
		n += r.metrics.StreamStoreResumes.Load()
	}
	for _, r := range c.dead {
		n += r.metrics.StreamStoreResumes.Load()
	}
	return n
}

// SessionsRestored sums manager-level restores (core state rebuilt from
// the store) across live replicas. Dead managers are closed, so only the
// survivors report.
func (c *Cluster) SessionsRestored() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, r := range c.replicas {
		n += r.mgr.Snapshot().SessionsRestored
	}
	return n
}

// Close tears the whole cluster down, router first.
func (c *Cluster) Close() {
	if c.httpSrv != nil {
		_ = c.httpSrv.Close()
	}
	if c.httpLn != nil {
		c.httpLn.Close()
	}
	if c.streamLn != nil {
		c.streamLn.Close()
	}
	c.mu.Lock()
	names := make([]string, 0, len(c.replicas))
	for name := range c.replicas {
		names = append(names, name)
	}
	c.mu.Unlock()
	for _, name := range names {
		_ = c.KillReplica(name)
	}
}
