package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Connection-level chaos: a seeded fault injector for the stream transport.
//
// ChaosListener wraps a net.Listener and perturbs every accepted connection
// from a per-connection RNG stream, following the same disjoint-stream
// discipline as the node-level Injector: connection i draws from
// Seed + i*0x9E3779B9 + 1, a fixed number of variates at accept time, so the
// fault plan for one connection never depends on how many others exist or
// what they drew. The injectable faults are the ones a resumable stream
// protocol must survive:
//
//   - mid-stream kills: after a per-connection uplink byte budget drawn from
//     [KillMinBytes, KillMaxBytes], the connection is torn down;
//   - partial writes: one downlink write is truncated half-way and the
//     connection closed, leaving the peer a torn frame;
//   - slow reads: per-read injected latency, stretching connections across
//     heartbeat intervals;
//   - accept delays: the accept loop stalls before handing the connection to
//     the server, backing up the kernel accept queue.
//
// The per-connection fault plan is exactly reproducible for a fixed Seed.
// Wall-clock interleaving (which connection dies first, where a kill lands
// relative to frame boundaries) is not — and deliberately so: the resume
// protocol's determinism bar is that classification output is byte-identical
// to a fault-free replay for ANY disconnect pattern, so the injector's job is
// to generate varied, reproducible-in-distribution patterns, not a fixed
// script.
type ConnChaos struct {
	// Seed drives every per-connection fault plan.
	Seed int64
	// KillRate is the per-connection probability of a mid-stream kill.
	KillRate float64
	// KillMinBytes/KillMaxBytes bound the uplink bytes a killed connection
	// relays before it is torn down (drawn uniformly per connection).
	KillMinBytes int
	KillMaxBytes int
	// PartialWriteRate is the per-connection probability that one of the
	// first chaosPartialWindow downlink writes is truncated half-way and the
	// connection closed.
	PartialWriteRate float64
	// SlowReadRate is the per-read probability of injecting SlowReadDelay of
	// latency before the read.
	SlowReadRate  float64
	SlowReadDelay time.Duration
	// AcceptDelayRate is the per-connection probability of sleeping
	// AcceptDelay inside Accept, pressuring the accept queue.
	AcceptDelayRate float64
	AcceptDelay     time.Duration
}

// chaosPartialWindow is the downlink-write ordinal range a partial write can
// land on: early writes (hello-ack, first result flushes) are where a torn
// frame hurts the most.
const chaosPartialWindow = 4

// Validate reports the first invalid parameter, or nil. Unlike the per-slot
// node rates, connection rates may be exactly 1: "kill every connection" is
// the standard chaos drill.
func (c *ConnChaos) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"kill", c.KillRate},
		{"partial-write", c.PartialWriteRate},
		{"slow-read", c.SlowReadRate},
		{"accept-delay", c.AcceptDelayRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: conn %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.KillRate > 0 {
		if c.KillMinBytes < 1 {
			return fmt.Errorf("fault: conn kill-min-bytes %d below 1", c.KillMinBytes)
		}
		if c.KillMaxBytes < c.KillMinBytes {
			return fmt.Errorf("fault: conn kill-max-bytes %d below kill-min-bytes %d",
				c.KillMaxBytes, c.KillMinBytes)
		}
	}
	if c.SlowReadDelay < 0 || c.AcceptDelay < 0 {
		return fmt.Errorf("fault: negative conn chaos delay")
	}
	return nil
}

// ChaosStats is a snapshot of the faults a ChaosListener has injected.
type ChaosStats struct {
	// Conns is the number of connections accepted through the listener.
	Conns int64
	// Kills is the number of mid-stream connection kills fired.
	Kills int64
	// PartialWrites is the number of truncated downlink writes fired.
	PartialWrites int64
	// SlowReads is the number of reads that had latency injected.
	SlowReads int64
	// DelayedAccepts is the number of accepts that were stalled.
	DelayedAccepts int64
}

// ErrInjected marks an error produced by the chaos layer itself (as opposed
// to a genuine transport failure). Peers observe ordinary connection resets;
// only the faulted side sees this sentinel.
var ErrInjected = errors.New("fault: injected connection fault")

// ChaosListener wraps a net.Listener with the seeded connection faults of a
// ConnChaos config. Close closes the wrapped listener.
//
// The config may be swapped mid-run with SetConfig — that is how a scenario
// driver opens and closes fault windows around a long-lived listener. A
// connection's fault plan is armed once, at accept time, from the config in
// force at that moment; already-accepted connections keep the plan they were
// armed with.
type ChaosListener struct {
	net.Listener

	cfgMu sync.RWMutex
	cfg   ConnChaos

	next          atomic.Int64
	conns         atomic.Int64
	kills         atomic.Int64
	partialWrites atomic.Int64
	slowReads     atomic.Int64
	delayedAcc    atomic.Int64
}

// NewChaosListener validates cfg and wraps inner.
func NewChaosListener(inner net.Listener, cfg ConnChaos) (*ChaosListener, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ChaosListener{Listener: inner, cfg: cfg}, nil
}

// SetConfig swaps the fault config for connections accepted from now on.
// A zero ConnChaos closes the fault window entirely. The per-connection RNG
// stream discipline is unaffected: connection i always draws its five
// variates from Seed + i*0x9E3779B9 + 1, so reopening a window mid-run never
// shifts the plans of later connections.
func (l *ChaosListener) SetConfig(cfg ConnChaos) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	l.cfgMu.Lock()
	l.cfg = cfg
	l.cfgMu.Unlock()
	return nil
}

// Config returns the fault config currently arming new connections.
func (l *ChaosListener) Config() ConnChaos {
	l.cfgMu.RLock()
	defer l.cfgMu.RUnlock()
	return l.cfg
}

// Stats snapshots the injected-fault counters.
func (l *ChaosListener) Stats() ChaosStats {
	return ChaosStats{
		Conns:          l.conns.Load(),
		Kills:          l.kills.Load(),
		PartialWrites:  l.partialWrites.Load(),
		SlowReads:      l.slowReads.Load(),
		DelayedAccepts: l.delayedAcc.Load(),
	}
}

// Accept accepts from the wrapped listener and arms the connection's fault
// plan from the config in force right now. Exactly five variates are drawn
// per connection regardless of which faults are enabled, so enabling one
// fault class (or toggling a fault window mid-run) never moves another's
// schedule.
func (l *ChaosListener) Accept() (net.Conn, error) {
	cfg := l.Config()
	idx := l.next.Add(1) - 1
	rng := rand.New(rand.NewSource(cfg.Seed + idx*0x9E3779B9 + 1))
	killDraw := rng.Float64()
	killFrac := rng.Float64()
	partialDraw := rng.Float64()
	partialFrac := rng.Float64()
	acceptDraw := rng.Float64()

	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	if cfg.AcceptDelayRate > 0 && acceptDraw < cfg.AcceptDelayRate {
		l.delayedAcc.Add(1)
		time.Sleep(cfg.AcceptDelay)
	}
	cc := &chaosConn{
		Conn: conn, lis: l, rng: rng, killAt: -1, partialAt: -1,
		slowRate: cfg.SlowReadRate, slowDelay: cfg.SlowReadDelay,
	}
	if cfg.KillRate > 0 && killDraw < cfg.KillRate {
		span := cfg.KillMaxBytes - cfg.KillMinBytes + 1
		cc.killAt = cfg.KillMinBytes + int(killFrac*float64(span))
	}
	if cfg.PartialWriteRate > 0 && partialDraw < cfg.PartialWriteRate {
		cc.partialAt = 1 + int(partialFrac*chaosPartialWindow)
	}
	return cc, nil
}

// chaosConn executes one connection's fault plan. The mutex guards the RNG
// and counters against the server's reader/heartbeat-writer goroutine pair.
type chaosConn struct {
	net.Conn
	lis *ChaosListener

	slowRate  float64       // per-read slow probability, fixed at accept
	slowDelay time.Duration // injected latency per slow read

	mu        sync.Mutex
	rng       *rand.Rand
	readBytes int
	killAt    int // uplink byte budget before the kill, -1 disarmed
	killed    bool
	partialAt int // 1-based write ordinal to truncate, -1 disarmed
	writes    int
}

// Read injects slow reads and fires the mid-stream kill once the uplink byte
// budget is spent. Bytes already read are returned alongside the injected
// error, exactly like a socket torn between reads.
func (c *chaosConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	slow := c.slowRate > 0 && c.rng.Float64() < c.slowRate
	c.mu.Unlock()
	if slow {
		c.lis.slowReads.Add(1)
		time.Sleep(c.slowDelay)
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.readBytes += n
	kill := c.killAt >= 0 && !c.killed && c.readBytes >= c.killAt
	if kill {
		c.killed = true
	}
	c.mu.Unlock()
	if kill {
		c.lis.kills.Add(1)
		c.Conn.Close()
		return n, fmt.Errorf("%w: kill after %d uplink bytes", ErrInjected, c.readBytes)
	}
	return n, err
}

// Write truncates the armed write ordinal half-way and closes the
// connection, leaving the peer a torn frame.
func (c *chaosConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	tear := c.partialAt > 0 && c.writes == c.partialAt
	if tear {
		c.partialAt = -1
	}
	c.mu.Unlock()
	if tear {
		c.lis.partialWrites.Add(1)
		n := 0
		if half := len(p) / 2; half > 0 {
			n, _ = c.Conn.Write(p[:half])
		}
		c.Conn.Close()
		return n, fmt.Errorf("%w: partial write (%d of %d bytes)", ErrInjected, n, len(p))
	}
	return c.Conn.Write(p)
}
