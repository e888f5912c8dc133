package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"origin/internal/comm"
	"origin/internal/dnn"
	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/synth"
)

// The serial replay is the correctness oracle: it regenerates every
// wearer's inputs from the seed and feeds the rounds the server answered,
// in order, through fleet.Session.Classify on a freshly built model (and,
// for stream rounds, through comm's frame decoder and serve.StreamAssembler
// first). Each session's served class sequence must equal the replay's.
// Timed, the same pass gives the serial per-layer costs.

// serialTimes accumulates the serial per-layer costs.
type serialTimes struct {
	frameDecodeNs, frames  float64 // comm.ReadFrame + comm.DecodeIMU
	assembleNs, assembled  float64 // StreamAssembler.Ingest + TakeRound
	httpDecodeNs, decoded  float64 // JSON decode + serve.Inputs
	classifyUs, classified float64 // Session.Classify
	// B2 net Predict on the round's windows, timed every forwardStride-th
	// round (forwardRounds of them).
	forwardUs, windows, forwardRounds float64
	// EncodeSessionState(Session.State(nil)), every encodeStride-th round.
	encodeUs, stateBytes, encoded float64
}

// Sampling strides for the costlier serial timings.
const (
	forwardStride = 4
	encodeStride  = 8
)

// notServed marks a round with no successful answer in served.
const notServed = -2

// replayWorkers is how many goroutines check an untimed replay. Sessions
// are independent, so wearers replay in parallel; a timed replay runs on one
// goroutine so its serial costs share the process with nothing.
const replayWorkers = 2

// replay checks served[w][k], the class answered for wearer w's round k
// (notServed when it was not answered), and returns how many served classes
// differ from the serial replay's.
func replay(wl workload, cfg loadgen.Config, ids []string, served [][]int8, timed bool) (int, serialTimes, error) {
	model, err := fleet.DefaultBuild(profile)
	if err != nil {
		return 0, serialTimes{}, err
	}
	workers := replayWorkers
	if timed {
		workers = 1
	}
	type outcome struct {
		mismatches int
		tm         serialTimes
		err        error
	}
	outs := make([]outcome, workers)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := &outs[i]
			nets := model.System.CloneNetsB2() // nets keep activations: one set per goroutine
			for w := i; w < wl.wearers && o.err == nil; w += workers {
				var m int
				m, o.err = replayWearer(wl, cfg, model, nets, ids[w], w, served[w], &o.tm, timed)
				o.mismatches += m
			}
		}()
	}
	wg.Wait()
	mismatches := 0
	for _, o := range outs {
		if o.err != nil {
			return 0, serialTimes{}, o.err
		}
		mismatches += o.mismatches
	}
	return mismatches, outs[0].tm, nil
}

// replayWearer replays one wearer's answered rounds through a fresh
// session and counts the served classes that differ.
func replayWearer(wl workload, cfg loadgen.Config, model *fleet.Model, nets []*dnn.Network, id string, w int, served []int8, tm *serialTimes, timed bool) (int, error) {
	sess, err := fleet.NewSession(id, loadgen.UserID(w), model, fleet.Opts{})
	if err != nil {
		return 0, err
	}
	p := synth.MHEALTHProfile()
	var votes *loadgen.Stream
	var frames *loadgen.FrameSource
	var asm *serve.StreamAssembler
	if wl.stream {
		frames = loadgen.NewFrameSource(&cfg, p, w)
		asm = serve.NewStreamAssembler(model.Sensors(), model.Window)
	} else {
		votes = loadgen.NewStream(&cfg, p, w)
	}
	mismatches := 0
	for k := range served {
		var inputs []fleet.SensorInput
		if wl.stream {
			fs, err := frames.Next(k)
			if err != nil {
				return 0, err
			}
			if served[k] == notServed {
				continue
			}
			if inputs, err = assembleRound(asm, fs, tm, timed); err != nil {
				return 0, fmt.Errorf("wearer %d round %d: %w", w, k, err)
			}
		} else {
			req := votes.Next(k)
			if served[k] == notServed {
				continue
			}
			if inputs, err = decodeVotes(req.Votes[0], tm, timed); err != nil {
				return 0, fmt.Errorf("wearer %d round %d: %w", w, k, err)
			}
		}
		t0 := time.Now()
		res, err := sess.Classify(inputs)
		if timed {
			tm.classifyUs += float64(time.Since(t0)) / 1e3
			tm.classified++
		}
		if err != nil {
			return 0, fmt.Errorf("wearer %d round %d: %w", w, k, err)
		}
		if res.Class != int(served[k]) {
			mismatches++
		}
		if !timed {
			continue
		}
		if k%forwardStride == 0 {
			tm.forwardRounds++
			for _, in := range inputs {
				if in.Window == nil {
					continue
				}
				t0 := time.Now()
				nets[in.Sensor].Predict(in.Window)
				tm.forwardUs += float64(time.Since(t0)) / 1e3
				tm.windows++
			}
		}
		if k%encodeStride == 0 {
			t0 := time.Now()
			blob, err := fleet.EncodeSessionState(sess.State(nil))
			if err != nil {
				return 0, err
			}
			tm.encodeUs += float64(time.Since(t0)) / 1e3
			tm.stateBytes += float64(len(blob))
			tm.encoded++
		}
	}
	return mismatches, nil
}

// assembleRound turns one round's encoded frames into classify inputs
// exactly as the stream front does.
func assembleRound(asm *serve.StreamAssembler, frames []loadgen.EncodedFrame, tm *serialTimes, timed bool) ([]fleet.SensorInput, error) {
	end := false
	for _, f := range frames {
		t0 := time.Now()
		frame, err := comm.ReadFrame(bytes.NewReader(f.Bytes))
		if err != nil {
			return nil, err
		}
		imu, err := comm.DecodeIMU(frame.Payload)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if end, err = asm.Ingest(imu); err != nil {
			return nil, err
		}
		if timed {
			tm.frameDecodeNs += float64(t1.Sub(t0))
			tm.frames++
			tm.assembleNs += float64(time.Since(t1))
		}
	}
	if !end {
		return nil, fmt.Errorf("round ended without an end-of-round frame")
	}
	t0 := time.Now()
	inputs := asm.TakeRound()
	if timed {
		tm.assembleNs += float64(time.Since(t0))
		tm.assembled++
	}
	return inputs, nil
}

// decodeVotes parses one votes round's body exactly as the HTTP front does.
func decodeVotes(v serve.Vote, tm *serialTimes, timed bool) ([]fleet.SensorInput, error) {
	body := votesBody(nil, v)
	t0 := time.Now()
	var req serve.ClassifyRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	inputs, err := serve.Inputs(&req)
	if timed {
		tm.httpDecodeNs += float64(time.Since(t0))
		tm.decoded++
	}
	return inputs, err
}
