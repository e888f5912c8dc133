package fleet

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"origin/internal/dnn"
	"origin/internal/ensemble"
	"origin/internal/experiments"
	"origin/internal/schedule"
	"origin/internal/synth"
	"origin/internal/tensor"
)

// tinyModel builds a deterministic serving model without training. It is
// duplicated (in miniature) from fleettest, which white-box tests cannot
// import without an import cycle.
func tinyModel() *Model {
	p := synth.MHEALTHProfile()
	classes := p.NumClasses()
	nets := make([]*dnn.Network, synth.NumLocations)
	acc := make([][]float64, synth.NumLocations)
	m := ensemble.NewMatrix(synth.NumLocations, classes)
	for loc := 0; loc < synth.NumLocations; loc++ {
		rng := rand.New(rand.NewSource(42 + int64(loc)))
		nets[loc] = dnn.NewShallowHARNetwork(rng, dnn.DefaultHARConfig(synth.Channels, experiments.Window, classes))
		acc[loc] = make([]float64, classes)
		for c := 0; c < classes; c++ {
			acc[loc][c] = 0.4 + 0.1*float64((loc+c)%3)
			m.Set(loc, c, 0.01+0.005*float64((loc+2*c)%4))
		}
	}
	sys := &experiments.System{Profile: p, NetsB1: nets, NetsB2: nets,
		Matrix: m, AccTable: acc, Ranks: schedule.NewRankTable(acc)}
	return NewModel("MHEALTH", sys)
}

func tinyRegistry() *Registry {
	return NewRegistry(func(string) (*Model, error) { return tinyModel(), nil })
}

// fakeClock is a deterministic eviction clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestManagerLRUEviction(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry(), Shards: 1, MaxSessions: 2, Workers: 1})
	defer m.Close()
	s1, err := m.Create("MHEALTH", 1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.Create("MHEALTH", 2, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Touch s1 so s2 becomes the LRU victim.
	if _, err := m.Get(s1.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("MHEALTH", 3, Opts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(s1.ID()); err != nil {
		t.Errorf("recently-used session evicted: %v", err)
	}
	if _, err := m.Get(s2.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("LRU session still live, err=%v", err)
	}
	snap := m.Snapshot()
	if snap.SessionsActive != 2 || snap.SessionsEvicted != 1 || snap.SessionsCreated != 3 {
		t.Errorf("snapshot = %+v, want active=2 evicted=1 created=3", snap)
	}
}

func TestManagerTTLEviction(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	m := NewManager(Config{Registry: tinyRegistry(), Shards: 2, TTL: time.Minute, Workers: 1, Now: clock.Now})
	defer m.Close()
	s1, _ := m.Create("MHEALTH", 1, Opts{})
	clock.Advance(30 * time.Second)
	s2, _ := m.Create("MHEALTH", 2, Opts{})
	clock.Advance(45 * time.Second) // s1 idle 75s, s2 idle 45s
	if n := m.EvictExpired(); n != 1 {
		t.Fatalf("EvictExpired = %d, want 1", n)
	}
	if _, err := m.Get(s1.ID()); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired session still live, err=%v", err)
	}
	if _, err := m.Get(s2.ID()); err != nil {
		t.Errorf("fresh session evicted: %v", err)
	}
	// The Get above refreshed s2's TTL.
	clock.Advance(50 * time.Second)
	if n := m.EvictExpired(); n != 0 {
		t.Errorf("EvictExpired after touch = %d, want 0", n)
	}
}

// blockingScorer parks the round that scores through it: it announces the
// round on started, then holds it (and its running slot) until release
// closes.
type blockingScorer struct {
	started chan<- struct{}
	release <-chan struct{}
}

func (b blockingScorer) scoreWindows(sensors []int, _ []*tensor.Tensor) []windowScore {
	b.started <- struct{}{}
	<-b.release
	return make([]windowScore, len(sensors))
}

// holdSlot creates a session on m and starts a round on it whose scorer
// blocks, returning once that round holds its running slot. release lets the
// round finish; the test's cleanup releases it and waits for it to return.
func holdSlot(t *testing.T, m *Manager) (s *Session, release func()) {
	t.Helper()
	s, err := m.Create("MHEALTH", 1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	started, unblock, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	s.score = blockingScorer{started: started, release: unblock}
	window := []SensorInput{{Sensor: 0, Window: tensor.New(synth.Channels, s.Model().Window)}}
	go func() {
		defer close(done)
		if _, err := m.Classify(context.Background(), s.ID(), window, nil); err != nil {
			t.Errorf("blocking round: %v", err)
		}
	}()
	<-started
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(func() { release(); <-done })
	return s, release
}

// waitQueueDepth spins until n callers wait for a running slot. The rounds it
// watches are parked on channels, so the gauge settles promptly.
func waitQueueDepth(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Snapshot().QueueDepth != n {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth = %d, want %d", m.Snapshot().QueueDepth, n)
		}
		runtime.Gosched()
	}
}

// prop: with the single slot busy and the waiting line full, Classify sheds
// with ErrSaturated instead of queueing, and the shed counter moves.
func TestManagerClassifySheds(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry(), QueueDepth: 1, Workers: 1})
	s, release := holdSlot(t, m)
	waiter := make(chan error)
	go func() {
		_, err := m.Classify(context.Background(), s.ID(), nil, nil)
		waiter <- err
	}()
	waitQueueDepth(t, m, 1)
	if _, err := m.Classify(context.Background(), s.ID(), nil, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Classify with the line full: err=%v, want ErrSaturated", err)
	}
	if snap := m.Snapshot(); snap.RequestsShed != 1 {
		t.Errorf("RequestsShed = %d, want 1", snap.RequestsShed)
	}
	release()
	if err := <-waiter; err != nil {
		t.Errorf("waiting round: %v", err)
	}
	m.Close()
}

// prop: a full line sheds instead of blocking, Close waits for every
// admitted round (running or waiting) before returning, and rounds after
// Close are refused.
func TestQueueShedAndDrain(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry(), QueueDepth: 2, Workers: 1})
	s, release := holdSlot(t, m)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Classify(context.Background(), s.ID(), nil, nil); err != nil {
				t.Errorf("waiting round: %v", err)
			}
		}()
	}
	waitQueueDepth(t, m, 2)
	if _, err := m.Classify(context.Background(), s.ID(), nil, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Classify past the line: err=%v, want ErrSaturated", err)
	}

	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	release()
	<-closed
	if s.Slot() != 3 {
		t.Fatalf("session ran %d rounds by Close, want 3 (admitted rounds must complete)", s.Slot())
	}
	if snap := m.Snapshot(); snap.RequestsAccepted != 3 || snap.RequestsDone != 3 || snap.RequestsShed != 1 {
		t.Fatalf("snapshot = %+v, want accepted=done=3 shed=1", snap)
	}
	wg.Wait()
	if _, err := m.Classify(context.Background(), s.ID(), nil, nil); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Classify after Close: err=%v, want ErrShutdown", err)
	}
}

func TestQueueCloseIdempotent(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry(), QueueDepth: 1, Workers: 2})
	m.Close()
	m.Close()
}

// prop: a caller whose ctx ends while it waits for a slot gets ctx.Err()
// and its round never runs — the session does not advance behind the back
// of a caller that gave up.
func TestManagerClassifyCancelWhileWaiting(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry(), QueueDepth: 1, Workers: 1})
	s, release := holdSlot(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error)
	go func() {
		_, err := m.Classify(ctx, s.ID(), nil, nil)
		waiter <- err
	}()
	waitQueueDepth(t, m, 1)
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err=%v, want context.Canceled", err)
	}
	release()
	m.Close()
	if got := s.Slot(); got != 1 {
		t.Errorf("session at slot %d after the blocker, want 1 (the abandoned round must not run)", got)
	}
	if snap := m.Snapshot(); snap.RequestsAccepted != 1 || snap.RequestsDone != 1 {
		t.Errorf("accepted=%d done=%d, want 1 and 1 (only the blocker ran)", snap.RequestsAccepted, snap.RequestsDone)
	}
}

// prop: Close drains — every accepted classify completes, and requests
// arriving after Close fail with ErrShutdown.
func TestManagerCloseDrains(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry(), QueueDepth: 64, Workers: 2})
	s, err := m.Create("MHEALTH", 1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(rounds)
	for i := 0; i < rounds; i++ {
		go func() {
			defer wg.Done()
			_, err := m.Classify(context.Background(), s.ID(), []SensorInput{{Sensor: 0, Class: 1, Confidence: 0.02}}, nil)
			if err != nil {
				t.Errorf("classify: %v", err)
			}
		}()
	}
	wg.Wait()
	m.Close()
	snap := m.Snapshot()
	if snap.RequestsDone != snap.RequestsAccepted || snap.RequestsDone != rounds {
		t.Errorf("done=%d accepted=%d, want both %d (accepted work must complete)",
			snap.RequestsDone, snap.RequestsAccepted, rounds)
	}
	if _, err := m.Classify(context.Background(), s.ID(), nil, nil); !errors.Is(err, ErrShutdown) {
		t.Errorf("classify after Close: err=%v, want ErrShutdown", err)
	}
	if _, err := m.Create("MHEALTH", 9, Opts{}); !errors.Is(err, ErrShutdown) {
		t.Errorf("create after Close: err=%v, want ErrShutdown", err)
	}
}

// prop: deleting a session retires its telemetry into the aggregate
// instead of losing it.
func TestManagerTelemetryRetires(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry(), Workers: 1})
	defer m.Close()
	s, _ := m.Create("MHEALTH", 1, Opts{})
	for i := 0; i < 5; i++ {
		if _, err := m.Classify(context.Background(), s.ID(), []SensorInput{{Sensor: i % 3, Class: 0, Confidence: 0.01}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Telemetry()
	if err := m.Delete(s.ID()); err != nil {
		t.Fatal(err)
	}
	after := m.Telemetry()
	if before.FreshVotes == 0 {
		t.Fatal("no fresh votes recorded")
	}
	if after.FreshVotes != before.FreshVotes || after.AdaptationUpdates != before.AdaptationUpdates {
		t.Errorf("telemetry lost on delete: before fresh=%d adapts=%d, after fresh=%d adapts=%d",
			before.FreshVotes, before.AdaptationUpdates, after.FreshVotes, after.AdaptationUpdates)
	}
}

// prop: the registry builds each profile exactly once, even under
// concurrent first access.
func TestRegistrySingleFlight(t *testing.T) {
	var builds int32
	var mu sync.Mutex
	reg := NewRegistry(func(string) (*Model, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		return tinyModel(), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Get("MHEALTH"); err != nil {
				t.Errorf("get: %v", err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("built %d times, want 1", builds)
	}
}

// prop (ISSUE 9): SetPressure opens a serve-side stress window on the
// classify path only — forced shed rejects exactly every Nth classify with
// ErrSaturated and counts it, worker delay stretches job latency, and the
// zero Pressure closes the window without resetting the shed cadence.
func TestManagerSetPressure(t *testing.T) {
	m := NewManager(Config{Registry: tinyRegistry()})
	defer m.Close()
	s, err := m.Create("MHEALTH", 1, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetPressure(Pressure{WorkerDelay: -time.Millisecond}); err == nil {
		t.Fatal("negative worker delay accepted")
	}
	if err := m.SetPressure(Pressure{ShedEvery: -1}); err == nil {
		t.Fatal("negative shed-every accepted")
	}
	if err := m.SetPressure(Pressure{ShedEvery: 3}); err != nil {
		t.Fatal(err)
	}
	if got := m.pressureShedEvery.Load(); got != 3 {
		t.Fatalf("shed-every in force = %d, want 3", got)
	}
	in := []SensorInput{{Sensor: 0, Class: 1, Confidence: 0.02}}
	shed := 0
	for k := 0; k < 9; k++ {
		_, err := m.Classify(context.Background(), s.ID(), in, nil)
		switch {
		case errors.Is(err, ErrSaturated):
			shed++
		case err != nil:
			t.Fatalf("classify %d: %v", k, err)
		}
	}
	if shed != 3 {
		t.Fatalf("shed %d of 9 classifies at ShedEvery=3, want 3", shed)
	}
	if snap := m.Snapshot(); snap.RequestsShed != 3 {
		t.Fatalf("RequestsShed = %d, want 3", snap.RequestsShed)
	}
	// Close the window: classifies flow freely again, and session CRUD was
	// never pressured.
	if err := m.SetPressure(Pressure{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if _, err := m.Classify(context.Background(), s.ID(), in, nil); err != nil {
			t.Fatalf("classify after window close: %v", err)
		}
	}
	// Worker delay occupies the worker: a single classify takes at least the
	// injected latency end to end.
	if err := m.SetPressure(Pressure{WorkerDelay: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Classify(context.Background(), s.ID(), in, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("classify under 30ms worker delay took %v", d)
	}
}
