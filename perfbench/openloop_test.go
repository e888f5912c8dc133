package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock advances only when the code under test sleeps or a fake
// transport spends time, so the tests never depend on wall-clock timing.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// fakeTransport answers every round after service time; the round with
// index stallK blocks its write for stall first.
type fakeTransport struct {
	clk     *fakeClock
	service time.Duration
	stallK  int
	stall   time.Duration
}

func (f *fakeTransport) send(r *round) error {
	r.sent = f.clk.now()
	if r.k == f.stallK {
		f.clk.t += f.stall
	}
	f.clk.t += f.service
	r.done = f.clk.now()
	r.class = 0
	return nil
}

const ms = time.Millisecond

func TestStallIsChargedFromDueTimes(t *testing.T) {
	clk := &fakeClock{}
	rounds := schedule(10, 1000, 1, make([]int, 1)) // one round due every 1 ms
	tr := &fakeTransport{clk: clk, service: ms / 10, stallK: 3, stall: 5 * ms}
	if err := drive(rounds, clk, tr, 0); err != nil {
		t.Fatal(err)
	}
	// Round 3 goes out on time and its write stalls 5 ms. Rounds 4-8 came
	// due during the stall; they go out back to back once it clears and are
	// timed from when they were due, not from when they could be sent.
	want := []struct{ sent, latency time.Duration }{
		{0, ms / 10}, {1 * ms, ms / 10}, {2 * ms, ms / 10},
		{3 * ms, 5*ms + ms/10},
		{8*ms + ms/10, 4*ms + 2*ms/10},
		{8*ms + 2*ms/10, 3*ms + 3*ms/10},
		{8*ms + 3*ms/10, 2*ms + 4*ms/10},
		{8*ms + 4*ms/10, 1*ms + 5*ms/10},
		{8*ms + 5*ms/10, 6 * ms / 10},
		{9 * ms, ms / 10}, // the generator has caught up
	}
	for i, r := range rounds {
		if r.sent != want[i].sent || r.done-r.due != want[i].latency {
			t.Errorf("round %d: sent %v latency %v; want sent %v latency %v", i, r.sent, r.done-r.due, want[i].sent, want[i].latency)
		}
	}
	st := summarize(rounds, func(*round) int { return 0 })
	if st.answered != 10 || st.correct != 10 || st.failed != 0 {
		t.Errorf("summary = %+v", st)
	}
	if got := st.lateMs[len(st.lateMs)-1]; got != 4.1 {
		t.Errorf("worst lateness = %v ms, want 4.1", got)
	}
}

func TestStopLeavesRoundsUnsentAsMisses(t *testing.T) {
	clk := &fakeClock{}
	rounds := schedule(10, 1000, 1, make([]int, 1))
	tr := &fakeTransport{clk: clk, service: ms / 10, stallK: 2, stall: 20 * ms}
	if err := drive(rounds, clk, tr, 5*ms); err != nil {
		t.Fatal(err)
	}
	st := summarize(rounds, nil)
	if st.sent != 3 || st.answered != 3 {
		t.Fatalf("sent %d answered %d, want 3 and 3", st.sent, st.answered)
	}
	for _, r := range rounds[3:] {
		if !math.IsInf(r.latencyMs(), 1) {
			t.Errorf("unsent round %d has latency %v, want +Inf", r.k, r.latencyMs())
		}
	}
}

func TestFailedRoundMissesTheLimit(t *testing.T) {
	r := &round{due: 0, sent: 0, done: ms, failed: true}
	if !math.IsInf(r.latencyMs(), 1) {
		t.Fatalf("failed round latency %v, want +Inf", r.latencyMs())
	}
}

func TestScheduleContinuesEachWearer(t *testing.T) {
	next := make([]int, 3)
	first := schedule(4, 0, 3, next)
	second := schedule(5, 500, 3, next)
	// Each phase deals round-robin from wearer 0: 4 rounds give [2 1 1],
	// then 5 more give [4 3 2].
	if next[0] != 4 || next[1] != 3 || next[2] != 2 {
		t.Fatalf("next = %v, want [4 3 2]", next)
	}
	if first[3].wearer != 0 || first[3].k != 1 || first[0].due != 0 || first[3].due != 0 {
		t.Errorf("flat-out round 3 = %+v", *first[3])
	}
	if r := second[0]; r.wearer != 0 || r.k != 2 {
		t.Errorf("second phase starts at wearer %d round %d, want 0 and 2", r.wearer, r.k)
	}
	if r := second[4]; r.due != 8*ms {
		t.Errorf("round 4 at 500/s due %v, want 8ms", r.due)
	}
	for s, part := range split(second, 2) {
		for i, r := range part {
			if r.wearer%2 != s {
				t.Errorf("sender %d got wearer %d", s, r.wearer)
			}
			if i > 0 && part[i-1].due > r.due {
				t.Errorf("sender %d out of due order", s)
			}
		}
	}
}

func TestBacklogCountsDueAndUnanswered(t *testing.T) {
	rounds := []*round{
		{due: 0, sent: 0, done: 1 * ms},
		{due: 1 * ms, sent: 1 * ms, done: 5 * ms},
		{due: 2 * ms, sent: -1, done: -1},
		{due: 9 * ms, sent: -1, done: -1},
	}
	if n := backlog(rounds, 3*ms); n != 2 {
		t.Errorf("backlog at 3ms = %d, want 2", n)
	}
	if n := backlog(rounds, 6*ms); n != 1 {
		t.Errorf("backlog at 6ms = %d, want 1", n)
	}
}

func TestWindowsFoldTheRemainder(t *testing.T) {
	rounds := schedule(4500, 1000, 1, make([]int, 1))
	ws := windows(rounds, 2000)
	if len(ws) != 2 || len(ws[0]) != 2000 || len(ws[1]) != 2500 {
		t.Fatalf("windows of 4500 rounds by 2000: %d windows, sizes %d and %d", len(ws), len(ws[0]), len(ws[len(ws)-1]))
	}
	if ws := windows(rounds[:1500], 2000); len(ws) != 1 || len(ws[0]) != 1500 {
		t.Fatalf("a short phase is one window, got %d", len(ws))
	}
}

func TestCPUPerRoundIsTheMedianInterval(t *testing.T) {
	// Three intervals: 10 rounds on 1 ms of CPU, 10 rounds on 2 ms, then a
	// burst of 10 rounds on 50 ms. The median interval costs 200 us/round.
	// The first sample predates the phase; the CPU spent before it starts
	// is not charged to its rounds.
	var rounds []*round
	for i := 0; i < 30; i++ {
		d := time.Duration(i/10)*100*ms + ms
		rounds = append(rounds, &round{due: d, sent: d, done: d})
	}
	samples := []cpuSample{{-500 * ms, 0}, {0, 900 * ms}, {100 * ms, 901 * ms}, {200 * ms, 903 * ms}, {300 * ms, 953 * ms}, {400 * ms, 953 * ms}}
	if got := cpuPerRound(samples, rounds); got != 200 {
		t.Fatalf("cpuPerRound = %v us, want 200", got)
	}
}
