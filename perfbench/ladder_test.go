package main

import (
	"strings"
	"testing"
	"time"
)

// stepRounds builds a step of n rounds at rate, each answered after the
// latency lat(i) returns.
func stepRounds(n int, rate float64, lat func(i int) time.Duration) []*round {
	rounds := schedule(n, rate, 4, make([]int, 4))
	for i, r := range rounds {
		r.sent = r.due
		r.done = r.due + lat(i)
		r.class = 0
	}
	return rounds
}

func TestJudgeStep(t *testing.T) {
	const rate = 1000.0
	dur := 2 * time.Second
	fast := func(int) time.Duration { return time.Millisecond }

	if v := judgeStep(rate, stepRounds(2000, rate, fast), dur); !v.pass {
		t.Errorf("steady step missed: %s", v.reason)
	}

	// Growing backlog with a tail too short to move the p99: at 200
	// rounds/s the step's last ten rounds are still outstanding when it
	// ends, against about none at its middle.
	piling := stepRounds(400, 200, func(i int) time.Duration {
		if i >= 390 {
			return 100 * time.Millisecond
		}
		return time.Millisecond
	})
	if v := judgeStep(200, piling, dur); v.pass || !strings.Contains(v.reason, "backlog") || v.p99Ms > latencyLimitMs {
		t.Errorf("growing backlog: %+v", v)
	}

	// Twenty-three slow rounds out of 2000 put the p99 over the limit.
	slow := stepRounds(2000, rate, func(i int) time.Duration {
		if i%90 == 0 {
			return 40 * time.Millisecond
		}
		return time.Millisecond
	})
	if v := judgeStep(rate, slow, dur); v.pass || v.p99Ms <= latencyLimitMs {
		t.Errorf("slow tail passed: %+v", v)
	}

	// One shed round fails the step even though latency is fine.
	shed := stepRounds(2000, rate, fast)
	shed[700].failed = true
	if v := judgeStep(rate, shed, dur); v.pass || v.failed != 1 {
		t.Errorf("shed round passed: %+v", v)
	}

	// An errored (unanswered) round counts the same way as a shed one.
	errored := stepRounds(2000, rate, fast)
	errored[5].done, errored[5].failed = -1, true
	if v := judgeStep(rate, errored, dur); v.pass {
		t.Errorf("errored round passed: %+v", v)
	}

	unsent := stepRounds(2000, rate, fast)
	unsent[1999].sent, unsent[1999].done = -1, -1
	if v := judgeStep(rate, unsent, dur); v.pass || v.unsent != 1 {
		t.Errorf("unsent round passed: %+v", v)
	}
}

func TestCapacityStopsAtFirstMiss(t *testing.T) {
	steps := []stepVerdict{{rate: 1000, pass: true}, {rate: 2000, pass: true}, {rate: 3000}, {rate: 4000, pass: true}}
	if c := capacity(steps); c != 2000 {
		t.Errorf("capacity = %v, want 2000", c)
	}
	if c := capacity([]stepVerdict{{rate: 1000}}); c != 0 {
		t.Errorf("capacity with a missed first rung = %v, want 0", c)
	}
}
