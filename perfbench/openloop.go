package main

import (
	"math"
	"sort"
	"time"

	"origin/internal/loadgen"
)

// The load generator is an open loop: wearers are independent, so round i
// of a phase is due at i/rate whatever happened to earlier rounds, and its
// latency is timed from that due time. A stall therefore charges its wait to
// every round that came due behind it, instead of quietly thinning the load
// (the coordinated-omission error of a closed loop). The one exception keeps
// each session replayable: a wearer's round k+1 is never sent before its
// round k is answered; a round held back that way is still timed from its
// due time.

// round is one classify round of one wearer. Times are offsets from the
// phase start.
type round struct {
	wearer int
	k      int // the wearer's round index, counted over the whole run
	due    time.Duration
	sent   time.Duration // -1 until the round is written
	done   time.Duration // -1 until the round is answered
	class  int
	failed bool // errored or shed; counts as a miss and as a failure
	// frames is a stream round's payload, generated before its phase.
	frames []loadgen.EncodedFrame
}

// answered reports whether the round got a successful answer.
func (r *round) answered() bool { return r.done >= 0 && !r.failed }

// latencyMs is due-to-answer time, +Inf for a failed or unanswered round so
// it misses every latency limit.
func (r *round) latencyMs() float64 {
	if !r.answered() {
		return math.Inf(1)
	}
	return float64(r.done-r.due) / 1e6
}

// schedule lays out n rounds at a fixed rate, round-robin over the wearers,
// continuing each wearer's round counter from next (updated in place). A
// zero rate makes every round due at once (warm-up runs flat out).
func schedule(n int, rate float64, wearers int, next []int) []*round {
	rounds := make([]*round, n)
	for i := range rounds {
		w := i % wearers
		var due time.Duration
		if rate > 0 {
			due = time.Duration(float64(i) / rate * 1e9)
		}
		rounds[i] = &round{wearer: w, k: next[w], due: due, sent: -1, done: -1, class: -1}
		next[w]++
	}
	return rounds
}

// split deals a phase's rounds to senders by wearer (wearer % senders), each
// sender keeping due order. One sender owns one connection, so every round
// of a wearer leaves on the same connection.
func split(rounds []*round, senders int) [][]*round {
	out := make([][]*round, senders)
	for _, r := range rounds {
		s := r.wearer % senders
		out[s] = append(out[s], r)
	}
	return out
}

// clock is the generator's time source: wall time in a run, a fake in tests.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock is one sender's view of the phase clock; each sender sleeps on
// its own timer.
type wallClock struct {
	start time.Time
	timer *preciseTimer
}

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	if err := c.timer.sleep(t - c.now()); err != nil {
		time.Sleep(t - c.now()) // the timer is gone only if the run is ending
	}
}

// transport sends one round. It must set r.sent just before the round goes
// on the wire, after any wait for the wearer's previous answer. A
// synchronous transport also sets r.done before returning; a pipelined one
// leaves that to its receiver.
type transport interface {
	send(r *round) error
}

// drive sends one sender's rounds in due order, sleeping until each is due.
// It never re-bases a due time on when an earlier round went out: late
// sending shows up as latency and as lateness. Rounds still unsent at stopAt
// (when positive) are left unsent and count as misses; stopAt bounds an
// overloaded ladder step.
func drive(rounds []*round, clk clock, t transport, stopAt time.Duration) error {
	for _, r := range rounds {
		clk.sleepUntil(r.due)
		if stopAt > 0 && clk.now() > stopAt {
			return nil
		}
		if err := t.send(r); err != nil {
			return err
		}
	}
	return nil
}

// phaseStats summarises a phase's rounds.
type phaseStats struct {
	attempted int // rounds scheduled
	sent      int
	answered  int
	failed    int
	latMs     []float64 // sorted; +Inf for failed or unanswered rounds
	lateMs    []float64 // sorted send lateness of sent rounds
	correct   int       // answers equal to the generator's ground truth
}

func summarize(rounds []*round, truth func(r *round) int) phaseStats {
	st := phaseStats{attempted: len(rounds)}
	st.latMs = make([]float64, 0, len(rounds))
	for _, r := range rounds {
		st.latMs = append(st.latMs, r.latencyMs())
		if r.sent >= 0 {
			st.sent++
			st.lateMs = append(st.lateMs, float64(r.sent-r.due)/1e6)
		}
		if r.failed {
			st.failed++
		}
		if r.answered() {
			st.answered++
			if truth != nil && r.class == truth(r) {
				st.correct++
			}
		}
	}
	sort.Float64s(st.latMs)
	sort.Float64s(st.lateMs)
	return st
}

// backlog is the number of rounds due by t but not answered by t.
func backlog(rounds []*round, t time.Duration) int {
	n := 0
	for _, r := range rounds {
		if r.due <= t && (r.done < 0 || r.done > t) {
			n++
		}
	}
	return n
}

// windows cuts a phase's rounds, in due order, into consecutive windows of
// size rounds; a short remainder joins the last window.
func windows(rounds []*round, size int) [][]*round {
	var out [][]*round
	for len(rounds) >= 2*size {
		out = append(out, rounds[:size])
		rounds = rounds[size:]
	}
	if len(rounds) > 0 {
		out = append(out, rounds)
	}
	return out
}

// cpuSample is the process CPU time read at an offset into a phase.
type cpuSample struct {
	at  time.Duration
	cpu time.Duration
}

// cpuPerRound is the median, over the intervals between consecutive
// samples, of CPU time per round answered in the interval, in
// microseconds. Intervals that begin before the phase (while its payloads
// were generated) or in which no round was answered are skipped.
func cpuPerRound(samples []cpuSample, rounds []*round) float64 {
	var per []float64
	for i := 1; i < len(samples); i++ {
		lo, hi := samples[i-1], samples[i]
		if lo.at < 0 {
			continue
		}
		n := 0
		for _, r := range rounds {
			if r.answered() && r.done > lo.at && r.done <= hi.at {
				n++
			}
		}
		if n > 0 {
			per = append(per, float64(hi.cpu-lo.cpu)/1e3/float64(n))
		}
	}
	return median(per)
}
