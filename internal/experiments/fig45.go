package experiments

import (
	"fmt"
	"strings"

	"origin/internal/obs"
	"origin/internal/sim"
)

// PolicyCell is one (width, policy) accuracy measurement.
type PolicyCell struct {
	// Width is the ER-r width; Kind the system variant.
	Width int
	Kind  PolicyKind
	// PerClass is per-activity round accuracy; Overall the top-1 accuracy.
	PerClass []float64
	Overall  float64
	// Completion is the fraction of attempts that finished.
	Completion float64
	// Telemetry sums the run telemetry of the averaged seeds (per-slot
	// tallies dropped).
	Telemetry obs.Telemetry
}

// Fig4Result reproduces Fig. 4: ER-r alone vs ER-r + AAS, per activity, for
// every round-robin width.
type Fig4Result struct {
	// Activities holds class labels.
	Activities []string
	// Cells holds one entry per (width × {ER-r, AAS}) pair.
	Cells []PolicyCell
}

// SweepConfig controls the Fig. 4/5 sweeps.
type SweepConfig struct {
	// Widths lists the ER-r widths (default 3, 6, 9, 12).
	Widths []int
	// Slots per run (default 6000) and Seeds to average over (default 3).
	Slots int
	Seeds []int64
	// Workers bounds the sweep's concurrency (0 = GOMAXPROCS). Every run
	// is self-contained and deterministic, so the worker count changes
	// wall-clock time only, never the results.
	Workers int
}

func (c SweepConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return obs.DefaultWorkers()
}

func (c *SweepConfig) fill() {
	if len(c.Widths) == 0 {
		c.Widths = []int{3, 6, 9, 12}
	}
	if c.Slots == 0 {
		c.Slots = 6000
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{3, 17, 91}
	}
}

// averagedRun runs one (width, kind) cell over all seeds — through the
// bounded worker pool, since every run is self-contained and
// deterministic — and averages.
func averagedRun(sys *System, width int, kind PolicyKind, cfg SweepConfig) PolicyCell {
	results := make([]*sim.Result, len(cfg.Seeds))
	obs.ForEach(len(results), cfg.workers(), func(i int) {
		results[i] = RunPolicy(sys, RunOpts{Width: width, Kind: kind, Slots: cfg.Slots, Seed: cfg.Seeds[i]})
	})
	return averageCell(sys, width, kind, results)
}

// averageCell folds the per-seed results of one (width, kind) cell into
// its averaged PolicyCell.
func averageCell(sys *System, width int, kind PolicyKind, results []*sim.Result) PolicyCell {
	classes := sys.Profile.NumClasses()
	cell := PolicyCell{Width: width, Kind: kind, PerClass: make([]float64, classes)}
	for _, r := range results {
		per := r.RoundPerClass()
		for c := range per {
			cell.PerClass[c] += per[c]
		}
		cell.Overall += r.RoundAccuracy()
		_, atLeast, _ := r.Completion.Rates()
		cell.Completion += atLeast
		totals := r.Telemetry.Totals()
		cell.Telemetry.Merge(&totals)
	}
	n := float64(len(results))
	for c := range cell.PerClass {
		cell.PerClass[c] /= n
	}
	cell.Overall /= n
	cell.Completion /= n
	return cell
}

// RunFig4 sweeps ER-r and AAS across widths on harvested energy. All
// (width × policy × seed) runs go through one bounded worker pool.
func RunFig4(sys *System, cfg SweepConfig) *Fig4Result {
	cfg.fill()
	res := &Fig4Result{Activities: append([]string(nil), sys.Profile.Activities...)}
	kinds := []PolicyKind{PolicyERr, PolicyAAS}
	res.Cells = sweepCells(sys, cfg, kinds)
	return res
}

// sweepCells evaluates every (width × kind) combination in deterministic
// output order. The full (width × kind × seed) job list is flattened and
// run through one bounded worker pool, so a sweep never spawns more
// concurrent simulations than the pool width — previously every cell and
// every seed got its own goroutine, ~36+ unbounded concurrent full runs.
func sweepCells(sys *System, cfg SweepConfig, kinds []PolicyKind) []PolicyCell {
	type job struct {
		cell  int
		width int
		kind  PolicyKind
		seed  int64
	}
	nCells := len(cfg.Widths) * len(kinds)
	jobs := make([]job, 0, nCells*len(cfg.Seeds))
	for wi, w := range cfg.Widths {
		for ki, k := range kinds {
			for _, seed := range cfg.Seeds {
				jobs = append(jobs, job{cell: wi*len(kinds) + ki, width: w, kind: k, seed: seed})
			}
		}
	}
	results := make([]*sim.Result, len(jobs))
	obs.ForEach(len(jobs), cfg.workers(), func(i int) {
		j := jobs[i]
		results[i] = RunPolicy(sys, RunOpts{Width: j.width, Kind: j.kind, Slots: cfg.Slots, Seed: j.seed})
	})

	cells := make([]PolicyCell, nCells)
	perCell := make([][]*sim.Result, nCells)
	for i, j := range jobs {
		perCell[j.cell] = append(perCell[j.cell], results[i])
	}
	for idx, rs := range perCell {
		w := cfg.Widths[idx/len(kinds)]
		k := kinds[idx%len(kinds)]
		cells[idx] = averageCell(sys, w, k, rs)
	}
	return cells
}

// String renders Fig. 4 as one row per (width, policy).
func (r *Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — accuracy of ER-r alone vs ER-r + AAS (harvested energy):\n")
	fmt.Fprintf(&b, "  %-12s", "Policy")
	for _, a := range r.Activities {
		fmt.Fprintf(&b, " %9s", a)
	}
	fmt.Fprintf(&b, " %9s %9s\n", "Overall", "Complete")
	for _, c := range r.Cells {
		name := fmt.Sprintf("RR%d", c.Width)
		if c.Kind == PolicyAAS {
			name += " AAS"
		}
		fmt.Fprintf(&b, "  %-12s", name)
		for _, v := range c.PerClass {
			fmt.Fprintf(&b, " %9s", pct(v))
		}
		fmt.Fprintf(&b, " %9s %9s\n", pct(c.Overall), pct(c.Completion))
	}
	return b.String()
}

// Fig5Result reproduces Fig. 5 (panel a = MHEALTH, panel b = PAMAP2): the
// full policy sweep (AAS, AASR, Origin per width) plus the two
// fully-powered baselines.
type Fig5Result struct {
	// Dataset names the profile.
	Dataset string
	// Activities holds class labels.
	Activities []string
	// Cells holds one entry per (width × {AAS, AASR, Origin}).
	Cells []PolicyCell
	// B1PerClass/B2PerClass and B1Overall/B2Overall are the fully-powered
	// baselines (majority voting).
	B1PerClass, B2PerClass []float64
	B1Overall, B2Overall   float64
}

// RunFig5 executes the full sweep for one profile.
func RunFig5(sys *System, cfg SweepConfig) *Fig5Result {
	cfg.fill()
	res := &Fig5Result{
		Dataset:    sys.Profile.Name,
		Activities: append([]string(nil), sys.Profile.Activities...),
	}
	res.Cells = sweepCells(sys, cfg, []PolicyKind{PolicyAAS, PolicyAASR, PolicyOrigin})
	classes := sys.Profile.NumClasses()
	res.B1PerClass = make([]float64, classes)
	res.B2PerClass = make([]float64, classes)
	for _, seed := range cfg.Seeds {
		b1 := RunBaselineSystem(sys, "B1", cfg.Slots, seed, nil, 0)
		b2 := RunBaselineSystem(sys, "B2", cfg.Slots, seed, nil, 0)
		for c, v := range b1.RoundPerClass() {
			res.B1PerClass[c] += v
		}
		for c, v := range b2.RoundPerClass() {
			res.B2PerClass[c] += v
		}
		res.B1Overall += b1.RoundAccuracy()
		res.B2Overall += b2.RoundAccuracy()
	}
	n := float64(len(cfg.Seeds))
	for c := 0; c < classes; c++ {
		res.B1PerClass[c] /= n
		res.B2PerClass[c] /= n
	}
	res.B1Overall /= n
	res.B2Overall /= n
	return res
}

// Cell returns the sweep cell for (width, kind), or nil.
func (r *Fig5Result) Cell(width int, kind PolicyKind) *PolicyCell {
	for i := range r.Cells {
		if r.Cells[i].Width == width && r.Cells[i].Kind == kind {
			return &r.Cells[i]
		}
	}
	return nil
}

// String renders the panel like the paper's grouped bars, one row per
// configuration.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 (%s) — policy sweep vs fully-powered baselines:\n", r.Dataset)
	fmt.Fprintf(&b, "  %-14s", "Policy")
	for _, a := range r.Activities {
		fmt.Fprintf(&b, " %9s", a)
	}
	fmt.Fprintf(&b, " %9s\n", "Overall")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-14s", fmt.Sprintf("RR%d %s", c.Width, c.Kind))
		for _, v := range c.PerClass {
			fmt.Fprintf(&b, " %9s", pct(v))
		}
		fmt.Fprintf(&b, " %9s\n", pct(c.Overall))
	}
	fmt.Fprintf(&b, "  %-14s", "Baseline-2")
	for _, v := range r.B2PerClass {
		fmt.Fprintf(&b, " %9s", pct(v))
	}
	fmt.Fprintf(&b, " %9s\n", pct(r.B2Overall))
	fmt.Fprintf(&b, "  %-14s", "Baseline-1")
	for _, v := range r.B1PerClass {
		fmt.Fprintf(&b, " %9s", pct(v))
	}
	fmt.Fprintf(&b, " %9s\n", pct(r.B1Overall))
	return b.String()
}
