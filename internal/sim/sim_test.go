package sim

import (
	"math/rand"
	"sync"
	"testing"

	"origin/internal/comm"
	"origin/internal/dataset"
	"origin/internal/dnn"
	"origin/internal/energy"
	"origin/internal/ensemble"
	"origin/internal/host"
	"origin/internal/schedule"
	"origin/internal/sensor"
	"origin/internal/synth"
)

const testWindow = 64

// fixture holds a small trained 3-sensor system shared by all sim tests.
type fixture struct {
	profile  *synth.Profile
	nets     []*dnn.Network
	matrix   *ensemble.Matrix
	accTable [][]float64
	perNet   []float64 // per-net overall test accuracy
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		p := synth.MHEALTHProfile()
		f := &fixture{profile: p}
		var testSets [][]dnn.Sample
		for _, loc := range synth.Locations() {
			samples := dataset.Make(dataset.Config{
				Profile: p, User: synth.NewUser(0), Location: loc,
				PerClass: 50, Window: testWindow, Seed: 100 + int64(loc),
			})
			train, test := dataset.Split(samples, 0.75, 5)
			rng := rand.New(rand.NewSource(200 + int64(loc)))
			net := dnn.NewHARNetwork(rng, dnn.HARConfig{
				Channels: synth.Channels, Window: testWindow, Classes: p.NumClasses(),
				Conv1Out: 6, Conv2Out: 8, Kernel: 5, Pool: 2, Hidden: 16,
			})
			cfg := dnn.DefaultTrainConfig()
			cfg.Epochs = 22
			dnn.Train(net, train, cfg)
			f.nets = append(f.nets, net)
			testSets = append(testSets, test)
			f.perNet = append(f.perNet, dnn.Evaluate(net, test))
		}
		f.matrix = ensemble.BuildMatrix(f.nets, testSets, p.NumClasses())
		f.accTable = ensemble.BuildAccuracyTable(f.nets, testSets, p.NumClasses())
		fix = f
	})
	return fix
}

func flatTrace(powerW float64) *energy.Trace {
	tr := &energy.Trace{Tick: 0.01, Power: make([]float64, 1000)}
	for i := range tr.Power {
		tr.Power[i] = powerW
	}
	return tr
}

// nodesWith builds three nodes over clones of the fixture nets with the
// given harvest power.
func nodesWith(f *fixture, powerW float64) []*sensor.Node {
	var nodes []*sensor.Node
	for _, loc := range synth.Locations() {
		cfg := sensor.DefaultConfig(int(loc), loc, f.nets[loc].Clone(), flatTrace(powerW))
		nodes = append(nodes, sensor.New(cfg))
	}
	return nodes
}

func smallTimeline(p *synth.Profile, slots int, seed int64) *synth.Timeline {
	cfg := synth.TimelineConfig{Slots: slots, MeanSegment: 60, MinSegment: 20, Seed: seed}
	return synth.GenerateTimeline(p, cfg)
}

func TestFullyPoweredNaiveAllMatchesBaseline(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 400, 1)
	nodes := nodesWith(f, 10e-3) // 10 mW: effectively unconstrained
	h := host.New(host.Config{
		Sensors: 3, Classes: f.profile.NumClasses(),
		Recall: true, Agg: host.AggMajority,
	})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NaiveAll{N: 3}, Host: h,
		Window: testWindow, Seed: 9, WarmupSlots: 5,
	})
	all, atLeast, _ := res.Completion.Rates()
	if all < 0.99 || atLeast < 0.99 {
		t.Fatalf("fully powered completion = %v/%v, want ≈1", all, atLeast)
	}
	// Accuracy should be near the fully-powered ensemble baseline.
	hb := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	base := RunBaseline(BaselineConfig{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Window: testWindow, Seed: 9, Nets: f.nets, Host: hb,
	})
	if diff := res.Accuracy() - base.Accuracy(); diff < -0.08 || diff > 0.08 {
		t.Fatalf("fully-powered sim accuracy %v vs baseline %v differ too much",
			res.Accuracy(), base.Accuracy())
	}
}

func TestZeroPowerCompletesNothing(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 100, 2)
	nodes := nodesWith(f, 0)
	for _, n := range nodes {
		n.Capacitor().Drain()
	}
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NaiveAll{N: 3}, Host: h,
		Window: testWindow, Seed: 3,
	})
	_, atLeast, failed := res.Completion.Rates()
	if atLeast != 0 || failed != 1 {
		t.Fatalf("zero power completion: atLeast=%v failed=%v", atLeast, failed)
	}
	if res.Accuracy() != 0 {
		t.Fatalf("zero power accuracy = %v, want 0 (all missing)", res.Accuracy())
	}
}

func TestRoundRobinAmplePowerCompletes(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 300, 3)
	nodes := nodesWith(f, 5e-3)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NewExtendedRoundRobin(12, 3), Host: h,
		Window: testWindow, Seed: 4, WarmupSlots: 12,
	})
	_, atLeast, _ := res.Completion.Rates()
	if atLeast < 0.99 {
		t.Fatalf("RR12 with ample power completion = %v, want ≈1", atLeast)
	}
	if res.Accuracy() < 0.5 {
		t.Fatalf("RR12 accuracy = %v, want >= 0.5", res.Accuracy())
	}
	// Each sensor should have been activated roughly equally.
	for i, st := range res.NodeStats {
		if st.Started == 0 {
			t.Fatalf("node %d never started", i)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	f := getFixture(t)
	run := func() float64 {
		tl := smallTimeline(f.profile, 200, 5)
		nodes := nodesWith(f, 200e-6)
		h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
		res := Run(Config{
			Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
			Nodes: nodes, Policy: schedule.NewExtendedRoundRobin(6, 3), Host: h,
			Window: testWindow, Seed: 6,
		})
		return res.Accuracy()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestAASUsesRankTableAndFallback(t *testing.T) {
	f := getFixture(t)
	ranks := schedule.NewRankTable(f.accTable)
	tl := smallTimeline(f.profile, 400, 7)
	nodes := nodesWith(f, 5e-3)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NewAAS(12, 3, ranks), Host: h,
		Window: testWindow, Seed: 8, WarmupSlots: 12,
	})
	if res.Accuracy() < 0.5 {
		t.Fatalf("AAS accuracy = %v", res.Accuracy())
	}
	total := 0
	for _, st := range res.NodeStats {
		total += st.Started
	}
	// Cadence: one inference every 4 slots.
	want := len(tl.PerSlot) / 4
	if total < want-2 || total > want+2 {
		t.Fatalf("AAS started %d inferences, want ≈%d", total, want)
	}
}

func TestOriginWeightedBeatsNothing(t *testing.T) {
	// Smoke test for the full Origin stack: weighted aggregation + adaptive
	// matrix + AAS + recall on a constrained supply.
	f := getFixture(t)
	ranks := schedule.NewRankTable(f.accTable)
	tl := smallTimeline(f.profile, 600, 9)
	nodes := nodesWith(f, 250e-6)
	h := host.New(host.Config{
		Sensors: 3, Classes: f.profile.NumClasses(),
		Recall: true, Agg: host.AggWeighted,
		Matrix: f.matrix.Clone(), Adaptive: true,
	})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NewAAS(12, 3, ranks), Host: h,
		Window: testWindow, Seed: 10, WarmupSlots: 20,
	})
	if res.Accuracy() < 0.4 {
		t.Fatalf("Origin stack accuracy = %v, want >= 0.4", res.Accuracy())
	}
	if h.AdaptsApplied() == 0 {
		t.Fatal("adaptive matrix never updated")
	}
}

func TestBaselineEnsembleBeatsWeakestSensor(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 500, 11)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	base := RunBaseline(BaselineConfig{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Window: testWindow, Seed: 12, Nets: f.nets, Host: h,
	})
	worst := 1.0
	for _, a := range f.perNet {
		if a < worst {
			worst = a
		}
	}
	if base.Accuracy() <= worst {
		t.Fatalf("majority ensemble (%v) should beat the weakest sensor (%v)", base.Accuracy(), worst)
	}
}

func TestWarmupExcluded(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 50, 13)
	nodes := nodesWith(f, 10e-3)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NaiveAll{N: 3}, Host: h,
		Window: testWindow, Seed: 14, WarmupSlots: 20,
	})
	if got := res.Confusion.Total(); got != 30 {
		t.Fatalf("confusion total = %d, want 30 (50 slots − 20 warmup)", got)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	f := getFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	Run(Config{Profile: f.profile})
}

func TestLossyCommReducesFreshResultsButRecallCopes(t *testing.T) {
	f := getFixture(t)
	run := func(commCfg *CommConfig) *Result {
		tl := smallTimeline(f.profile, 400, 21)
		nodes := nodesWith(f, 5e-3)
		h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
		return Run(Config{
			Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
			Nodes: nodes, Policy: schedule.NewExtendedRoundRobin(6, 3), Host: h,
			Window: testWindow, Seed: 22, WarmupSlots: 12, Comm: commCfg,
		})
	}
	perfect := run(nil)
	lossy := run(&CommConfig{
		Uplink:   comm.Config{DropRate: 0.3, LatencyTicks: 2},
		Downlink: comm.Config{DropRate: 0.3, LatencyTicks: 2},
	})
	if lossy.FreshSlots >= perfect.FreshSlots {
		t.Fatalf("lossy links should reduce fresh rounds: %d vs %d", lossy.FreshSlots, perfect.FreshSlots)
	}
	// Recall keeps the surviving rounds useful: accuracy should not collapse.
	if lossy.RoundAccuracy() < perfect.RoundAccuracy()-0.25 {
		t.Fatalf("lossy round accuracy %v collapsed vs %v", lossy.RoundAccuracy(), perfect.RoundAccuracy())
	}
}

// anticipationSpy wraps a policy and records what the host anticipated at
// every decision point.
type anticipationSpy struct {
	inner schedule.Policy
	seen  []int
}

func (p *anticipationSpy) Name() string { return "spy(" + p.inner.Name() + ")" }

func (p *anticipationSpy) Decide(ctx *schedule.Context) []int {
	p.seen = append(p.seen, ctx.Anticipated)
	return p.inner.Decide(ctx)
}

// TestAnticipationFollowsEnsembleFinal is the regression test for the
// missing NoteFinal call: the anticipation the policy sees at slot s+1 must
// be the fused ensemble decision of slot s, not whichever lone sensor
// happened to report last.
func TestAnticipationFollowsEnsembleFinal(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 300, 31)
	nodes := nodesWith(f, 10e-3)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	spy := &anticipationSpy{inner: schedule.NaiveAll{N: 3}}
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: spy, Host: h,
		Window: testWindow, Seed: 32,
	})
	if len(spy.seen) != res.Slots || len(res.Predicted) != res.Slots {
		t.Fatalf("recorded %d decisions / %d predictions over %d slots", len(spy.seen), len(res.Predicted), res.Slots)
	}
	for s := 1; s < res.Slots; s++ {
		if final := res.Predicted[s-1]; final >= 0 && spy.seen[s] != final {
			t.Fatalf("slot %d anticipation = %d, want ensemble final %d of slot %d",
				s, spy.seen[s], final, s-1)
		}
	}
}

// evenSlotPolicy activates every sensor on even slots only, so odd slots
// have no attempt round — a completion misattributed to the arrival slot
// of a late activation has nowhere to land.
type evenSlotPolicy struct{ n int }

func (p evenSlotPolicy) Name() string { return "even-slots" }

func (p evenSlotPolicy) Decide(ctx *schedule.Context) []int {
	if ctx.Slot%2 != 0 {
		return nil
	}
	ids := make([]int, p.n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestLateActivationCreditedToDecisionSlot is the regression test for the
// downlink slot-attribution bug: with delivery latency longer than one slot
// (30 ticks > 25 ticks/slot), every activation arrives in the slot after
// the decision. Completions must still credit the round that decided them.
func TestLateActivationCreditedToDecisionSlot(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 100, 33)
	nodes := nodesWith(f, 10e-3)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: evenSlotPolicy{n: 3}, Host: h,
		Window: testWindow, Seed: 34,
		Comm: &CommConfig{Downlink: comm.Config{LatencyTicks: 30}},
	})
	_, atLeast, _ := res.Completion.Rates()
	if atLeast < 0.9 {
		t.Fatalf("late activations misattributed: completion ≥1 = %v, want ≈1", atLeast)
	}
	if res.Telemetry.Downlink.Late == 0 {
		t.Fatal("telemetry recorded no late downlink deliveries")
	}
}

// TestInFlightUplinkResultsCounted pins down the end-of-run accounting:
// results still riding the uplink when the timeline ends are counted, and
// every sent message is accounted for exactly once.
func TestInFlightUplinkResultsCounted(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 100, 35)
	nodes := nodesWith(f, 10e-3)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NaiveAll{N: 3}, Host: h,
		Window: testWindow, Seed: 36,
		// Longer than the whole run (100 slots = 2500 ticks): nothing lands.
		Comm: &CommConfig{Uplink: comm.Config{LatencyTicks: 5000}},
	})
	tele := res.Telemetry
	if tele.InFlightResultsDiscarded == 0 {
		t.Fatal("no in-flight uplink results counted at end of run")
	}
	if res.FreshSlots != 0 {
		t.Fatalf("nothing should have been delivered, got %d fresh slots", res.FreshSlots)
	}
	if got := tele.Uplink.Delivered + tele.Uplink.Dropped + tele.InFlightResultsDiscarded; got != tele.Uplink.Sent {
		t.Fatalf("uplink accounting: delivered %d + dropped %d + in-flight %d != sent %d",
			tele.Uplink.Delivered, tele.Uplink.Dropped, tele.InFlightResultsDiscarded, tele.Uplink.Sent)
	}
}

// TestTelemetryMatchesNodeStats cross-checks the run telemetry against the
// per-node counters it mirrors.
func TestTelemetryMatchesNodeStats(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 200, 37)
	nodes := nodesWith(f, 500e-6)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NewExtendedRoundRobin(6, 3), Host: h,
		Window: testWindow, Seed: 38,
	})
	tele := res.Telemetry
	if tele == nil {
		t.Fatal("Result.Telemetry not populated")
	}
	var started, completed int
	for _, st := range res.NodeStats {
		started += st.Started
		completed += st.Completed
	}
	if tele.InferencesStarted != started || tele.InferencesCompleted != completed {
		t.Fatalf("telemetry %d/%d vs node stats %d/%d", tele.InferencesStarted, tele.InferencesCompleted, started, completed)
	}
	if tele.Slots != res.Slots || len(tele.PerSlot) != res.Slots {
		t.Fatalf("telemetry covers %d slots (%d tallies), run had %d", tele.Slots, len(tele.PerSlot), res.Slots)
	}
	var perSlotStarted int
	for _, s := range tele.PerSlot {
		perSlotStarted += int(s.Started)
	}
	if perSlotStarted != started {
		t.Fatalf("per-slot started sum %d != total %d", perSlotStarted, started)
	}
	if tele.FreshVotes+tele.RecallVotes == 0 {
		t.Fatal("no votes recorded")
	}
}

func TestCommLatencyDelaysResults(t *testing.T) {
	f := getFixture(t)
	tl := smallTimeline(f.profile, 100, 23)
	nodes := nodesWith(f, 10e-3)
	h := host.New(host.Config{Sensors: 3, Classes: f.profile.NumClasses(), Recall: true, Agg: host.AggMajority})
	res := Run(Config{
		Profile: f.profile, User: synth.NewUser(0), Timeline: tl,
		Nodes: nodes, Policy: schedule.NaiveAll{N: 3}, Host: h,
		Window: testWindow, Seed: 24,
		Comm: &CommConfig{Uplink: comm.Config{LatencyTicks: 3}},
	})
	if res.FreshSlots == 0 {
		t.Fatal("latency-only links should still deliver results")
	}
	_, atLeast, _ := res.Completion.Rates()
	if atLeast < 0.9 {
		t.Fatalf("completion with latency-only links = %v", atLeast)
	}
}
