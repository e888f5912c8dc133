package scenario

import (
	"fmt"

	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/synth"
)

// SerialReplay executes the spec's lineages one at a time with no network,
// no queue, and no concurrency: each lineage's payload stream is regenerated
// (lineageGen is shared with the live engine), pushed through the same wire
// codec and stream assembler the server uses, and classified on a fresh
// facade session. The returned traces are the ground truth the live run's
// canonical section must match on the zero-fault path.
//
// newModel must build the same model the live server serves for the spec's
// profile — the replay bar compares decisions, so the weights must agree.
func SerialReplay(spec *Spec, newModel func(profile string) (*fleet.Model, error)) ([]LineageTrace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	profile, err := synth.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	pl := buildPlan(spec)
	traces := make([]LineageTrace, len(pl.lineages))
	for _, lp := range pl.lineages {
		model, err := newModel(spec.Profile)
		if err != nil {
			return nil, fmt.Errorf("scenario: replay lineage %d: %w", lp.Index, err)
		}
		// Zero Opts mirrors the engine's CreateSessionRequest, which leaves
		// StaleLimit/Quorum/Freeze to server defaults.
		sess, err := fleet.NewSession(fmt.Sprintf("replay-%d", lp.Index), lp.Wearer, model, fleet.Opts{})
		if err != nil {
			return nil, fmt.Errorf("scenario: replay lineage %d: %w", lp.Index, err)
		}
		gen := newLineageGen(spec, profile, lp)
		var asm *serve.StreamAssembler
		if lp.Stream {
			asm = serve.NewStreamAssembler(model.Sensors(), model.Window)
		}
		tr := LineageTrace{Index: lp.Index, Wearer: lp.Wearer, Born: lp.Born, Stream: lp.Stream}
		for p := lp.Born; p < lp.Die; p++ {
			gen.enterPhase(p)
			for k := 0; k < spec.Phases[p].Rounds; k++ {
				truth := gen.truth()
				var class int
				if lp.Stream {
					var frames []loadgen.EncodedFrame
					if frames, err = gen.frames(); err == nil {
						class, err = loadgen.ReplayRound(frames, asm, sess)
					}
				} else {
					class, err = loadgen.ReplayRequest(gen.request(), sess)
				}
				if err != nil {
					return nil, fmt.Errorf("scenario: replay lineage %d phase %d round %d: %w",
						lp.Index, p, k, err)
				}
				tr.Classes = append(tr.Classes, class)
				tr.Truth = append(tr.Truth, truth)
			}
		}
		traces[lp.Index] = tr
	}
	return traces, nil
}
