package main

import (
	"fmt"
	"math"
	"time"

	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/synth"
)

// profile is the dataset profile every workload serves.
const profile = "MHEALTH"

// workload is one traffic mix. Rates and ladders are frozen: later changes
// to the program are measured against the same numbers, never rescaled ones.
type workload struct {
	name    string
	stream  bool // binary stream front (else HTTP/JSON votes)
	store   bool // FileStateStore on a fresh temp directory
	wearers int
	// warmup rounds are sent flat out during set-up.
	warmup int
	// nominalRPS is the fixed rate the latency metrics are read at, about
	// half the capacity of the commit that defined the benchmark.
	nominalRPS float64
	// ladder is the ascending list of rates capacity_rps is read from.
	ladder []float64
}

var workloads = []workload{
	{
		name: "votes-fleet", wearers: 1024, warmup: 1024,
		nominalRPS: 20000,
		ladder:     rungs(20000, 1.06, 20),
	},
	{
		name: "stream-mem", stream: true, wearers: 2, warmup: 100,
		nominalRPS: 10000,
		ladder:     rungs(10000, 1.06, 20),
	},
	{
		name: "stream-store", stream: true, store: true, wearers: 2, warmup: 100,
		nominalRPS: 1500,
		ladder:     rungs(1500, 1.06, 20),
	},
}

// rungs is a geometric ladder of n rates from first, each ratio times the
// last, rounded to 10 rounds/s.
func rungs(first, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := first
	for i := range out {
		out[i] = math.Round(r/10) * 10
		r *= ratio
	}
	return out
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// plan fixes a run's phase lengths from the measured seconds. An untraced
// run spends them all at the nominal rate. A traced run spends half at the
// nominal rate untraced, half traced, and half on the ladder's rungs.
type plan struct {
	nominal time.Duration
	step    time.Duration
}

func planFor(wl workload, seconds int, traced bool) plan {
	total := time.Duration(seconds) * time.Second
	if !traced {
		return plan{nominal: total}
	}
	return plan{nominal: total / 2, step: total / 2 / time.Duration(len(wl.ladder))}
}

// roundsAt is the number of rounds a phase of length d at rate schedules.
func roundsAt(rate float64, d time.Duration) int { return int(rate * d.Seconds()) }

// maxRoundsPerWearer bounds how many rounds one wearer can be sent in a run,
// so every wearer's inputs can be laid out before set-up.
func (p plan) maxRoundsPerWearer(wl workload, traced bool) int {
	perWearer := func(n int) int { return (n + wl.wearers - 1) / wl.wearers }
	total := perWearer(wl.warmup) + perWearer(roundsAt(wl.nominalRPS, p.nominal))
	if !traced {
		return total
	}
	total += perWearer(roundsAt(wl.nominalRPS, p.nominal))
	for _, r := range wl.ladder {
		total += ladderAttempts * perWearer(roundsAt(r, p.step))
	}
	return total
}

// inputs holds every wearer's generated payloads. They derive from the seed
// alone (loadgen's per-user streams), so the serial replay regenerates the
// identical inputs.
type inputs struct {
	wl     workload
	cfg    loadgen.Config
	votes  [][]voteIn // [wearer][k], votes workload
	frames []*loadgen.FrameSource
}

// voteIn is one votes round, packed small: the votes workload holds every
// wearer's rounds for the whole run.
type voteIn struct {
	conf         float64
	class, truth int8
}

func genConfig(wl workload, seed int64, rounds int) loadgen.Config {
	mode := loadgen.ModeVotes
	if wl.stream {
		mode = loadgen.ModeStream
	}
	return loadgen.Config{
		Profile: profile, Seed: seed, Requests: rounds, Mode: mode,
		SensorsPerRequest: 1, VoteFlip: 0.2, StreamHop: loadgen.DefaultStreamHop,
	}
}

func newInputs(wl workload, seed int64, rounds int) *inputs {
	in := &inputs{wl: wl, cfg: genConfig(wl, seed, rounds)}
	p := synth.MHEALTHProfile()
	if wl.stream {
		for w := 0; w < wl.wearers; w++ {
			in.frames = append(in.frames, loadgen.NewFrameSource(&in.cfg, p, w))
		}
		return in
	}
	in.votes = make([][]voteIn, wl.wearers)
	for w := range in.votes {
		st := loadgen.NewStream(&in.cfg, p, w)
		in.votes[w] = make([]voteIn, rounds)
		for k := 0; k < rounds; k++ {
			v := st.Next(k).Votes[0]
			in.votes[w][k] = voteIn{conf: v.Confidence, class: int8(v.Class), truth: int8(st.Truth(k))}
		}
	}
	return in
}

// vote is wearer w's round k as sent: with one reporting sensor per round,
// loadgen cycles the sensors round by round.
func (in *inputs) vote(w, k int) serve.Vote {
	v := in.votes[w][k]
	return serve.Vote{Sensor: k % synth.NumLocations, Class: int(v.class), Confidence: v.conf}
}

// fill generates the stream frames of a phase's rounds (each wearer's
// frame source steps in round order); votes need no per-phase work.
func (in *inputs) fill(rounds []*round) error {
	if !in.wl.stream {
		return nil
	}
	for _, r := range rounds {
		f, err := in.frames[r.wearer].Next(r.k)
		if err != nil {
			return err
		}
		r.frames = f
	}
	return nil
}

// truthOf is the generator's ground-truth activity for a round.
func (in *inputs) truthOf(r *round) int {
	if in.wl.stream {
		return in.frames[r.wearer].Truth(r.k)
	}
	return int(in.votes[r.wearer][r.k].truth)
}

// classifyRequest renders one votes round as the HTTP request the front
// receives: request line, headers and JSON body.
func classifyRequest(dst []byte, id string, v serve.Vote) []byte {
	body := votesBody(nil, v)
	dst = append(dst, "POST /v1/sessions/"...)
	dst = append(dst, id...)
	dst = append(dst, "/classify HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = fmt.Appendf(dst, "%d\r\n\r\n", len(body))
	return append(dst, body...)
}

// votesBody is the JSON body of one votes round.
func votesBody(dst []byte, v serve.Vote) []byte {
	return fmt.Appendf(dst, `{"votes":[{"sensor":%d,"class":%d,"confidence":%v}]}`, v.Sensor, v.Class, v.Confidence)
}
