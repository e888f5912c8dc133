package main

import (
	"fmt"
	"math"
	"time"
)

// latencyLimitMs is the round-latency limit: a tenth of the scheduler's
// 250 ms slot, within which the host must fuse a round so adaptive sensor
// selection can act on the latest class.
const latencyLimitMs = 25.0

// stepVerdict is the outcome of one ladder step.
type stepVerdict struct {
	rate       float64
	p99Ms      float64
	failed     int
	unsent     int
	backlogMid int
	backlogEnd int
	pass       bool
	reason     string
}

// judgeStep decides whether a ladder step met the limit. A step misses when
// its p99 round latency exceeds the limit (failed and unanswered rounds
// count as infinitely slow), when any round failed or was shed, when rounds
// were left unsent, or when the backlog grew by more than one limit's worth
// of arrivals between the middle and the end of the step.
func judgeStep(rate float64, rounds []*round, dur time.Duration) stepVerdict {
	st := summarize(rounds, nil)
	v := stepVerdict{rate: rate, failed: st.failed, unsent: st.attempted - st.sent}
	p99, _, ok := tailPercentile(st.latMs, 0.99)
	if !ok {
		p99 = math.Inf(1)
	}
	v.p99Ms = p99
	v.backlogMid = backlog(rounds, dur/2)
	v.backlogEnd = backlog(rounds, dur)
	slack := max(8, int(rate*latencyLimitMs/1e3))
	switch {
	case v.failed > 0:
		v.reason = fmt.Sprintf("%d rounds failed or shed", v.failed)
	case v.unsent > 0:
		v.reason = fmt.Sprintf("%d rounds never sent", v.unsent)
	case v.p99Ms > latencyLimitMs:
		v.reason = fmt.Sprintf("p99 %.2f ms over the %.0f ms limit", v.p99Ms, latencyLimitMs)
	case v.backlogEnd-v.backlogMid > slack:
		v.reason = fmt.Sprintf("backlog grew %d -> %d rounds", v.backlogMid, v.backlogEnd)
	default:
		v.pass = true
	}
	return v
}

// capacity is the highest ladder rate reached by an unbroken run of passing
// steps from the bottom rung; the ladder stops at its first miss.
func capacity(steps []stepVerdict) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.pass {
			break
		}
		best = s.rate
	}
	return best
}
