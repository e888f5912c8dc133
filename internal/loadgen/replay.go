package loadgen

import (
	"fmt"

	"origin/internal/comm"
	"origin/internal/fleet"
	"origin/internal/serve"
	"origin/internal/synth"
)

// SerialReplay is the single-node reference for a load run: it rebuilds
// every user's classification sequence, one user at a time on a fresh
// session, with no server, no network and no concurrency. JSON modes push
// each user's exact request stream through the server's request decoder;
// stream mode regenerates the exact frame bytes the live client sent and
// replays them with ReplayRound. Every fault path of a live run — shedding,
// reconnects, replica kills — must reproduce these sequences.
//
// cfg must hold the values Run fills in for zero fields (SensorsPerRequest,
// VoteFlip, StreamHop), or the regenerated payloads differ from the sent
// ones. newModel must build the model the server serves for cfg.Profile.
func SerialReplay(cfg *Config, newModel func(profile string) (*fleet.Model, error)) ([][]int, error) {
	profile, err := synth.ProfileByName(cfg.Profile)
	if err != nil {
		return nil, err
	}
	out := make([][]int, cfg.Users)
	for i := range out {
		if out[i], err = replayUser(cfg, profile, newModel, i); err != nil {
			return nil, fmt.Errorf("loadgen: replay user %d: %w", i, err)
		}
	}
	return out, nil
}

func replayUser(cfg *Config, profile *synth.Profile, newModel func(string) (*fleet.Model, error), i int) ([]int, error) {
	model, err := newModel(cfg.Profile)
	if err != nil {
		return nil, err
	}
	sess, err := fleet.NewSession("replay", UserID(i), model, fleet.Opts{
		StaleLimit: cfg.StaleLimit, Quorum: cfg.Quorum, Freeze: cfg.Freeze,
	})
	if err != nil {
		return nil, err
	}
	var round func(k int) (int, error)
	if cfg.Mode == ModeStream {
		fs := NewFrameSource(cfg, profile, i)
		asm := serve.NewStreamAssembler(model.Sensors(), model.Window)
		round = func(k int) (int, error) {
			frames, err := fs.Next(k)
			if err != nil {
				return 0, err
			}
			return ReplayRound(frames, asm, sess)
		}
	} else {
		st := NewStream(cfg, profile, i)
		round = func(k int) (int, error) { return ReplayRequest(st.Next(k), sess) }
	}
	classes := make([]int, cfg.Requests)
	for k := range classes {
		if classes[k], err = round(k); err != nil {
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
	}
	return classes, nil
}

// ReplayRequest converts one round's JSON payload through the server's
// request decoder and classifies it on sess.
func ReplayRequest(req serve.ClassifyRequest, sess *fleet.Session) (int, error) {
	inputs, err := serve.Inputs(&req)
	if err != nil {
		return 0, err
	}
	res, err := sess.Classify(inputs)
	return res.Class, err
}

// ReplayRound decodes one round's frames through the wire codec and the
// server-side assembler — the exact transform a live stream round's bytes
// undergo — and classifies the completed round on sess.
func ReplayRound(frames []EncodedFrame, asm *serve.StreamAssembler, sess *fleet.Session) (int, error) {
	class, ended := 0, false
	for _, ef := range frames {
		f, err := comm.DecodeFrameBytes(ef.Bytes)
		if err != nil {
			return 0, err
		}
		imu, err := comm.DecodeIMU(f.Payload)
		if err != nil {
			return 0, err
		}
		end, err := asm.Ingest(imu)
		if err != nil {
			return 0, err
		}
		if !end {
			continue
		}
		res, err := sess.Classify(asm.TakeRound())
		if err != nil {
			return 0, err
		}
		class, ended = res.Class, true
	}
	if !ended {
		return 0, fmt.Errorf("round produced no end-of-round frame")
	}
	return class, nil
}
