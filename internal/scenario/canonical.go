package scenario

import "origin/internal/obs"

// traceOffset returns where phase p's rounds start inside lineage lp's
// trace: the sum of the rounds of every phase the lineage lived through
// before p.
func traceOffset(pl *plan, lp *lineagePlan, p int) int {
	off := 0
	for q := lp.Born; q < p; q++ {
		off += pl.spec.Phases[q].Rounds
	}
	return off
}

// buildCanonical assembles the deterministic half of the SLO report from
// the population plan and the per-lineage traces. Everything here is a pure
// function of (spec, traces); traces themselves are pure functions of the
// spec on the zero-fault path and of (spec, resume protocol) under faults —
// either way byte-stable across same-seed runs.
func buildCanonical(pl *plan, traces []LineageTrace) obs.SLOCanonical {
	spec := pl.spec
	c := obs.SLOCanonical{
		Name:     spec.Name,
		Profile:  spec.Profile,
		Seed:     spec.Seed,
		Lineages: len(pl.lineages),
	}
	for i := range pl.lineages {
		lp := &pl.lineages[i]
		if lp.Born > 0 {
			c.ColdStarts++
		}
		if lp.Die < len(spec.Phases) {
			c.Retired++
		}
	}

	var correct int
	for p := range spec.Phases {
		ph := &spec.Phases[p]
		sp := obs.SLOPhase{
			Name:        ph.Name,
			Users:       len(pl.live[p]),
			Rounds:      ph.Rounds,
			TotalRounds: len(pl.live[p]) * ph.Rounds,
			Chaos:       ph.Chaos != nil,
			Pressure:    ph.Pressure != nil,
		}
		for _, op := range ph.ShardOps {
			sp.ShardOps = append(sp.ShardOps, op.Op)
		}
		for _, idx := range pl.live[p] {
			lp := &pl.lineages[idx]
			if lp.Born == p {
				sp.ColdStarts++
			} else if ph.Drift > 0 {
				sp.Drifted++
			}
			off := traceOffset(pl, lp, p)
			tr := &traces[idx]
			for k := 0; k < ph.Rounds; k++ {
				if tr.Classes[off+k] == tr.Truth[off+k] {
					sp.Correct++
				}
			}
		}
		for i := range pl.lineages {
			if pl.lineages[i].Die == p {
				sp.Retired++
			}
		}
		if sp.TotalRounds > 0 {
			sp.Accuracy = float64(sp.Correct) / float64(sp.TotalRounds)
		}
		correct += sp.Correct
		c.TotalRounds += sp.TotalRounds
		c.Phases = append(c.Phases, sp)
	}
	if c.TotalRounds > 0 {
		c.Accuracy.Overall = float64(correct) / float64(c.TotalRounds)
	}

	// Calm/drift split: rounds strictly before a lineage's first drift epoch
	// are calm, the rest drift; never-drifting lineages are all calm.
	var calmCorrect, driftCorrect int
	sequences := make([][]int, len(traces))
	for i := range traces {
		tr := &traces[i]
		sequences[i] = tr.Classes
		lp := &pl.lineages[i]
		split := len(tr.Classes)
		if fd := pl.firstDrift(lp); fd >= 0 {
			split = traceOffset(pl, lp, fd)
		}
		for k := range tr.Classes {
			hit := tr.Classes[k] == tr.Truth[k]
			if k < split {
				c.Accuracy.CalmRounds++
				if hit {
					calmCorrect++
				}
			} else {
				c.Accuracy.DriftRounds++
				if hit {
					driftCorrect++
				}
			}
		}
	}
	if c.Accuracy.CalmRounds > 0 {
		c.Accuracy.Calm = float64(calmCorrect) / float64(c.Accuracy.CalmRounds)
	}
	if c.Accuracy.DriftRounds > 0 {
		c.Accuracy.Drift = float64(driftCorrect) / float64(c.Accuracy.DriftRounds)
	}
	c.Digest = obs.SLODigest(sequences)
	return c
}
