// Package schedule implements the scheduling policies evaluated in the
// paper: naive always-on activation, extended round-robin (ER-r, Fig. 3),
// and activity-aware scheduling (AAS, §III-B) with its rank lookup table
// and energy-fallback behaviour.
//
// A policy decides, at the start of every scheduler slot, which sensors (if
// any) start an inference. Recall and the confidence matrix are host-side
// concerns (internal/host); policies here only pick sensors.
package schedule

import (
	"fmt"
	"math/rand"
	"sort"
)

// Context is the information a policy may consult when deciding a slot.
// It deliberately excludes ground truth: Anticipated is the host's belief
// (the most recent classification), exactly what a deployed system has.
type Context struct {
	// Slot is the current scheduler slot index.
	Slot int
	// NumSensors is the network size.
	NumSensors int
	// Anticipated is the host's anticipated activity for this slot (the
	// paper anticipates the next activity to equal the last classified
	// one); -1 before any classification exists.
	Anticipated int
	// CanAfford reports whether a sensor's store can fund a full inference
	// right now — the energy check behind AAS's next-best fallback.
	CanAfford func(sensor int) bool
	// OracleActivity is the true current activity, supplied by the
	// simulator for the Oracle reference policy only. Deployable policies
	// must ignore it.
	OracleActivity int
	// StoreFraction reports a sensor's energy-store state of charge in
	// [0, 1] — the signal the adaptive-width scheduler paces itself by.
	StoreFraction func(sensor int) float64
}

// Policy selects the sensors to activate at each slot.
type Policy interface {
	// Name identifies the policy in tables ("RR12 AAS" etc.).
	Name() string
	// Decide returns the ids of sensors that must start an inference in
	// this slot (usually zero or one; NaiveAll returns all).
	Decide(ctx *Context) []int
}

// --- NaiveAll -------------------------------------------------------------------

// NaiveAll activates every sensor every slot — the paper's Fig. 1a
// motivation case where 90% of rounds fail outright.
type NaiveAll struct {
	// N is the number of sensors.
	N int
}

// Name implements Policy.
func (p NaiveAll) Name() string { return "NaiveAll" }

// Decide implements Policy.
func (p NaiveAll) Decide(ctx *Context) []int {
	out := make([]int, p.N)
	for i := range out {
		out[i] = i
	}
	return out
}

// --- Extended round-robin ---------------------------------------------------------

// ExtendedRoundRobin is the ER-r family of Fig. 3: a cycle of Width slots
// over N sensors. Width == N is plain round-robin (RR3); larger widths
// insert (Width−N)/N no-op slots after each inference so every sensor gets
// Width slots of harvesting between its activations.
//
// Sensor k is activated at slots ≡ k·(Width/N) (mod Width), matching the
// paper's interleaving (RR6 = C,·,W,·,A,·; RR12 = C,·,·,·,W,·,·,·,A,·,·,·).
type ExtendedRoundRobin struct {
	// Width is the cycle length in slots (RRn ⇒ Width = n).
	Width int
	// N is the number of sensors; Width must be a positive multiple of N.
	N int
}

// NewExtendedRoundRobin validates and builds an ER-r policy.
func NewExtendedRoundRobin(width, n int) ExtendedRoundRobin {
	if n <= 0 || width < n || width%n != 0 {
		panic(fmt.Sprintf("schedule: RR width %d must be a positive multiple of %d sensors", width, n))
	}
	return ExtendedRoundRobin{Width: width, N: n}
}

// Name implements Policy.
func (p ExtendedRoundRobin) Name() string { return fmt.Sprintf("RR%d", p.Width) }

// Stride returns the slot gap between consecutive system inferences.
func (p ExtendedRoundRobin) Stride() int { return p.Width / p.N }

// Decide implements Policy.
func (p ExtendedRoundRobin) Decide(ctx *Context) []int {
	phase := ctx.Slot % p.Width
	stride := p.Stride()
	if phase%stride != 0 {
		return nil // no-op slot
	}
	return []int{phase / stride}
}

// --- Rank table --------------------------------------------------------------------

// RankTable stores, per activity, the sensors ordered from most to least
// accurate. The paper stores ranks rather than floating-point accuracies to
// keep the lookup cheap on the node (§III-B); mirroring that, the table
// holds only small integers.
type RankTable struct {
	// order[activity] lists sensor ids, best first.
	order [][]uint8
}

// NewRankTable derives the table from a per-(sensor, class) accuracy
// matrix (acc[sensor][class]), such as ensemble.BuildAccuracyTable's
// output. Ties keep lower sensor ids first (deterministic).
func NewRankTable(acc [][]float64) *RankTable {
	if len(acc) == 0 || len(acc[0]) == 0 {
		panic("schedule: empty accuracy table")
	}
	sensors := len(acc)
	classes := len(acc[0])
	if sensors > 255 {
		panic("schedule: rank table supports at most 255 sensors")
	}
	t := &RankTable{order: make([][]uint8, classes)}
	for c := 0; c < classes; c++ {
		ids := make([]int, sensors)
		for s := range ids {
			ids[s] = s
		}
		sort.SliceStable(ids, func(i, j int) bool {
			return acc[ids[i]][c] > acc[ids[j]][c]
		})
		row := make([]uint8, sensors)
		for i, s := range ids {
			row[i] = uint8(s)
		}
		t.order[c] = row
	}
	return t
}

// Classes returns the number of activities covered.
func (t *RankTable) Classes() int { return len(t.order) }

// Sensors returns the number of sensors ranked.
func (t *RankTable) Sensors() int { return len(t.order[0]) }

// Best returns the top-ranked sensor for an activity.
func (t *RankTable) Best(activity int) int { return int(t.order[activity][0]) }

// Ordered returns all sensors for an activity, best first.
func (t *RankTable) Ordered(activity int) []int {
	row := t.order[activity]
	out := make([]int, len(row))
	for i, s := range row {
		out[i] = int(s)
	}
	return out
}

// --- Activity-aware scheduling ---------------------------------------------------

// AAS is the activity-aware scheduler (§III-B) built on an ER-r cadence:
// one inference every Width/N slots, but instead of rotating blindly it
// activates the best-ranked sensor for the anticipated activity, falling
// back to the next-best sensor when the best cannot fund an inference.
// Before the first classification exists (no anticipation) it behaves like
// plain ER-r.
//
// To incorporate ER-r the paper "induces delays between sending the
// external signal and starting the inference on the same sensor", with the
// delay set by the round-robin policy in use: after a sensor runs, it rests
// for Cooldown slots (default: the full RR width) before it may be signalled
// again. The cooldown gives a just-run sensor a harvesting window, forces
// enough rotation to keep the other sensors' recalled classifications
// fresh, and prevents a mediocre sensor from monopolising the schedule by
// repeatedly nominating itself for the activity it keeps detecting.
//
// AAS is stateful (it remembers when each sensor last ran); call Decide
// exactly once per slot, in slot order, on a fresh instance per run.
type AAS struct {
	// RR supplies the cadence (Width and N).
	RR ExtendedRoundRobin
	// Ranks is the per-activity sensor ranking.
	Ranks *RankTable
	// Cooldown is the per-sensor rest period in slots.
	Cooldown int

	lastRun []int
}

// NewAAS builds an activity-aware scheduler with the default cooldown
// (the full ER-r width).
func NewAAS(width, n int, ranks *RankTable) *AAS {
	rr := NewExtendedRoundRobin(width, n)
	if ranks == nil {
		panic("schedule: AAS requires a rank table")
	}
	if ranks.Sensors() != n {
		panic(fmt.Sprintf("schedule: rank table covers %d sensors, want %d", ranks.Sensors(), n))
	}
	cooldown := width
	last := make([]int, n)
	for i := range last {
		last[i] = -width // everyone eligible at slot 0
	}
	return &AAS{RR: rr, Ranks: ranks, Cooldown: cooldown, lastRun: last}
}

// Name implements Policy.
func (p *AAS) Name() string { return fmt.Sprintf("RR%d AAS", p.RR.Width) }

// Decide implements Policy.
func (p *AAS) Decide(ctx *Context) []int {
	stride := p.RR.Stride()
	if ctx.Slot%stride != 0 {
		return nil
	}
	var order []int
	if ctx.Anticipated >= 0 && ctx.Anticipated < p.Ranks.Classes() {
		order = p.Ranks.Ordered(ctx.Anticipated)
	} else {
		// Cold start: rotate like plain ER-r but still honour energy
		// fallback by considering the other sensors in rotation order.
		first := (ctx.Slot / stride) % p.RR.N
		order = make([]int, p.RR.N)
		for i := range order {
			order[i] = (first + i) % p.RR.N
		}
	}
	eligible := func(s int) bool { return ctx.Slot-p.lastRun[s] >= p.Cooldown }
	afford := func(s int) bool { return ctx.CanAfford == nil || ctx.CanAfford(s) }

	pick := -1
	for _, s := range order { // rested and funded, best rank first
		if eligible(s) && afford(s) {
			pick = s
			break
		}
	}
	if pick < 0 {
		for _, s := range order { // funded but tired: energy wins (§III-B)
			if afford(s) {
				pick = s
				break
			}
		}
	}
	if pick < 0 {
		for _, s := range order { // rested but broke: rotation still helps
			if eligible(s) {
				pick = s
				break
			}
		}
	}
	if pick < 0 {
		// Everyone is tired and broke: attempt the best anyway — with an
		// NVP, partial progress is not wasted energy.
		pick = order[0]
	}
	p.lastRun[pick] = ctx.Slot
	return []int{pick}
}

// --- Reference policies -------------------------------------------------------

// Random activates one uniformly-random sensor per ER-r cadence slot. It is
// the lower reference for AAS: any value in activity-aware selection must
// show up as AAS beating Random under the same cadence and energy.
// Stateful (own RNG); use a fresh instance per run.
type Random struct {
	// RR supplies the cadence.
	RR ExtendedRoundRobin

	rng *rand.Rand
}

// NewRandom builds a random scheduler with the given cadence and seed.
func NewRandom(width, n int, seed int64) *Random {
	return &Random{RR: NewExtendedRoundRobin(width, n), rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (p *Random) Name() string { return fmt.Sprintf("RR%d Random", p.RR.Width) }

// Decide implements Policy.
func (p *Random) Decide(ctx *Context) []int {
	if ctx.Slot%p.RR.Stride() != 0 {
		return nil
	}
	return []int{p.rng.Intn(p.RR.N)}
}

// Oracle is AAS with perfect anticipation: it is told the true current
// activity instead of guessing from the last classification. It upper-bounds
// what activity awareness can buy; a deployed AAS sits between Random and
// Oracle. The simulator supplies the truth through Context.OracleActivity.
type Oracle struct {
	// AAS supplies ranking, cooldown and energy fallback.
	AAS *AAS
}

// NewOracle builds an oracle scheduler over a fresh AAS instance.
func NewOracle(width, n int, ranks *RankTable) *Oracle {
	return &Oracle{AAS: NewAAS(width, n, ranks)}
}

// Name implements Policy.
func (p *Oracle) Name() string { return fmt.Sprintf("RR%d Oracle", p.AAS.RR.Width) }

// Decide implements Policy.
func (p *Oracle) Decide(ctx *Context) []int {
	oracleCtx := *ctx
	oracleCtx.Anticipated = ctx.OracleActivity
	return p.AAS.Decide(&oracleCtx)
}

// --- Adaptive width -----------------------------------------------------------

// AdaptiveWidth implements §IV's closing remark — "in case of abundant
// energy supply, one can use a round robin policy fit for the given EH
// source" — as a scheduler: it selects sensors exactly like AAS but paces
// inferences by the network's energy state instead of a fixed ER-r width.
// When the stores are full it infers every MinStride slots; as they drain
// it stretches toward MaxStride.
//
// Stateful; call Decide once per slot in order, fresh instance per run.
type AdaptiveWidth struct {
	// N is the sensor count.
	N int
	// MinStride and MaxStride bound the per-inference gap in slots
	// (equivalent ER-r widths N·MinStride .. N·MaxStride).
	MinStride, MaxStride int
	// Ranks is the per-activity sensor ranking.
	Ranks *RankTable

	lastRun      []int
	nextDecision int
	lastStride   int
}

// NewAdaptiveWidth builds the scheduler; strides are in slots.
func NewAdaptiveWidth(n, minStride, maxStride int, ranks *RankTable) *AdaptiveWidth {
	if n <= 0 || minStride <= 0 || maxStride < minStride {
		panic(fmt.Sprintf("schedule: invalid adaptive strides %d..%d", minStride, maxStride))
	}
	if ranks == nil || ranks.Sensors() != n {
		panic("schedule: AdaptiveWidth requires a rank table covering all sensors")
	}
	last := make([]int, n)
	for i := range last {
		last[i] = -n * maxStride
	}
	return &AdaptiveWidth{
		N: n, MinStride: minStride, MaxStride: maxStride,
		Ranks: ranks, lastRun: last, lastStride: maxStride,
	}
}

// Name implements Policy.
func (p *AdaptiveWidth) Name() string {
	return fmt.Sprintf("Adaptive(RR%d..RR%d)", p.N*p.MinStride, p.N*p.MaxStride)
}

// Decide implements Policy.
func (p *AdaptiveWidth) Decide(ctx *Context) []int {
	if ctx.Slot < p.nextDecision {
		return nil
	}
	// Sensor choice: AAS semantics with a cooldown of one full rotation at
	// the current pace.
	var order []int
	if ctx.Anticipated >= 0 && ctx.Anticipated < p.Ranks.Classes() {
		order = p.Ranks.Ordered(ctx.Anticipated)
	} else {
		first := ctx.Slot % p.N
		order = make([]int, p.N)
		for i := range order {
			order[i] = (first + i) % p.N
		}
	}
	cooldown := p.N * p.lastStride
	eligible := func(s int) bool { return ctx.Slot-p.lastRun[s] >= cooldown }
	afford := func(s int) bool { return ctx.CanAfford == nil || ctx.CanAfford(s) }
	pick := -1
	for _, s := range order {
		if eligible(s) && afford(s) {
			pick = s
			break
		}
	}
	if pick < 0 {
		for _, s := range order {
			if afford(s) {
				pick = s
				break
			}
		}
	}
	if pick < 0 {
		pick = order[0]
	}
	p.lastRun[pick] = ctx.Slot

	// Pace: map the mean state of charge onto [MinStride, MaxStride].
	frac := 0.0
	if ctx.StoreFraction != nil {
		for s := 0; s < p.N; s++ {
			frac += ctx.StoreFraction(s)
		}
		frac /= float64(p.N)
	}
	// Full stores (≥80%) run at MinStride; empty (≤20%) at MaxStride.
	t := (0.8 - frac) / 0.6
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	p.lastStride = p.MinStride + int(t*float64(p.MaxStride-p.MinStride)+0.5)
	p.nextDecision = ctx.Slot + p.lastStride
	return []int{pick}
}
