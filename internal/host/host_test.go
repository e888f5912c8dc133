package host

import (
	"testing"

	"origin/internal/ensemble"
	"origin/internal/sensor"
)

func res(s, class, slot int, conf float64) *sensor.Result {
	return &sensor.Result{Sensor: s, Class: class, Confidence: conf, Slot: slot}
}

func TestObserveUpdatesAnticipation(t *testing.T) {
	d := New(Config{Sensors: 3, Classes: 4, Agg: AggLatest})
	if d.Anticipated() != -1 {
		t.Fatal("fresh host should have no anticipation")
	}
	d.Observe(res(1, 2, 0, 0.1))
	if d.Anticipated() != 2 {
		t.Fatalf("anticipated = %d, want 2", d.Anticipated())
	}
	d.Observe(res(0, 3, 1, 0.1))
	if d.Anticipated() != 3 {
		t.Fatalf("anticipated = %d, want 3", d.Anticipated())
	}
	if d.Received() != 2 {
		t.Fatalf("received = %d", d.Received())
	}
}

func TestObserveValidation(t *testing.T) {
	d := New(Config{Sensors: 2, Classes: 2, Agg: AggLatest})
	d.Observe(nil) // no-op
	for _, bad := range []*sensor.Result{res(5, 0, 0, 0), res(0, 9, 0, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid result did not panic")
				}
			}()
			d.Observe(bad)
		}()
	}
}

func TestAggLatest(t *testing.T) {
	d := New(Config{Sensors: 3, Classes: 4, Agg: AggLatest})
	if d.Classify(0) != -1 {
		t.Fatal("no data should classify as -1")
	}
	d.Observe(res(0, 1, 0, 0.1))
	d.Observe(res(2, 3, 1, 0.1))
	if got := d.Classify(1); got != 3 {
		t.Fatalf("latest = %d, want 3", got)
	}
	// Latest persists across slots without StaleLimit.
	if got := d.Classify(50); got != 3 {
		t.Fatalf("latest at 50 = %d, want 3", got)
	}
}

func TestAggLatestStaleLimit(t *testing.T) {
	d := New(Config{Sensors: 1, Classes: 2, Agg: AggLatest, StaleLimit: 5})
	d.Observe(res(0, 1, 10, 0.1))
	if got := d.Classify(14); got != 1 {
		t.Fatalf("within stale limit = %d", got)
	}
	if got := d.Classify(16); got != -1 {
		t.Fatalf("beyond stale limit = %d, want -1", got)
	}
}

func TestMajorityWithRecall(t *testing.T) {
	d := New(Config{Sensors: 3, Classes: 3, Agg: AggMajority, Recall: true})
	d.Observe(res(0, 1, 0, 0.1)) // slot 0
	d.Observe(res(1, 1, 3, 0.2)) // slot 3
	d.Observe(res(2, 2, 6, 0.9)) // slot 6 (fresh)
	// At slot 6 all three vote thanks to recall: 1,1,2 → majority 1.
	if got := d.Classify(6); got != 1 {
		t.Fatalf("recall majority = %d, want 1", got)
	}
}

func TestMajorityWithoutRecallOnlyFreshVotes(t *testing.T) {
	d := New(Config{Sensors: 3, Classes: 3, Agg: AggMajority, Recall: false})
	d.Observe(res(0, 1, 0, 0.1))
	d.Observe(res(1, 1, 3, 0.2))
	d.Observe(res(2, 2, 6, 0.9))
	// Without recall only sensor 2's slot-6 vote counts.
	if got := d.Classify(6); got != 2 {
		t.Fatalf("fresh-only majority = %d, want 2", got)
	}
	// And a slot with no fresh result has no opinion.
	if got := d.Classify(7); got != -1 {
		t.Fatalf("no fresh votes = %d, want -1", got)
	}
}

func TestRecallStaleLimitDropsOldVotes(t *testing.T) {
	d := New(Config{Sensors: 2, Classes: 2, Agg: AggMajority, Recall: true, StaleLimit: 4})
	d.Observe(res(0, 0, 0, 0.9))
	d.Observe(res(1, 1, 8, 0.1))
	// At slot 8 sensor 0's vote is 8 slots old: dropped.
	if got := d.Classify(8); got != 1 {
		t.Fatalf("stale-limited majority = %d, want 1", got)
	}
}

func TestWeightedAggregationUsesMatrix(t *testing.T) {
	m := ensemble.NewMatrix(3, 2)
	m.Set(0, 1, 0.3) // sensor 0 is the class-1 expert
	m.Set(1, 0, 0.05)
	m.Set(2, 0, 0.05)
	d := New(Config{Sensors: 3, Classes: 2, Agg: AggWeighted, Recall: true, Matrix: m})
	d.Observe(res(1, 0, 0, 0.1))
	d.Observe(res(2, 0, 1, 0.1))
	d.Observe(res(0, 1, 2, 0.5))
	if got := d.Classify(2); got != 1 {
		t.Fatalf("weighted = %d, want 1 (expert outweighs two weak votes)", got)
	}
	// Same votes under naive majority go the other way.
	d2 := New(Config{Sensors: 3, Classes: 2, Agg: AggMajority, Recall: true})
	d2.Observe(res(1, 0, 0, 0.1))
	d2.Observe(res(2, 0, 1, 0.1))
	d2.Observe(res(0, 1, 2, 0.5))
	if got := d2.Classify(2); got != 0 {
		t.Fatalf("majority = %d, want 0", got)
	}
}

func TestAdaptiveConsensusUpdatesMatrix(t *testing.T) {
	// Two sensors agree with the consensus, one dissents: agreeing votes
	// reinforce their weight with their confidence; the dissenter's weight
	// is pulled toward zero.
	m := ensemble.NewMatrix(3, 2)
	m.Alpha = 0.5
	m.Set(0, 1, 0.1)
	m.Set(1, 1, 0.1)
	m.Set(2, 0, 0.2)
	d := New(Config{Sensors: 3, Classes: 2, Agg: AggWeighted, Recall: true, Matrix: m, Adaptive: true})
	d.Observe(res(0, 1, 5, 0.3))
	d.Observe(res(1, 1, 5, 0.5))
	d.Observe(res(2, 0, 5, 0.4))
	final := d.Classify(5)
	if final != 1 {
		t.Fatalf("consensus = %d, want 1", final)
	}
	d.Adapt(5, final)
	if got := m.At(0, 1); got != 0.2 { // (0.1+0.3)/2
		t.Fatalf("agreeing weight = %v, want 0.2", got)
	}
	if got := m.At(1, 1); got != 0.3 { // (0.1+0.5)/2
		t.Fatalf("agreeing weight = %v, want 0.3", got)
	}
	if got := m.At(2, 0); got != 0.1 { // (0.2+0)/2 — dissent pulls to zero
		t.Fatalf("dissenting weight = %v, want 0.1", got)
	}
	if d.AdaptsApplied() != 3 {
		t.Fatalf("adapts = %d, want 3", d.AdaptsApplied())
	}
}

func TestAdaptNoopWhenFrozenOrInvalid(t *testing.T) {
	m := ensemble.NewMatrix(1, 2)
	m.Set(0, 1, 0.1)
	d := New(Config{Sensors: 1, Classes: 2, Agg: AggWeighted, Recall: true, Matrix: m})
	d.Observe(res(0, 1, 0, 0.9))
	d.Adapt(0, 1) // not Adaptive: no-op
	if got := m.At(0, 1); got != 0.1 {
		t.Fatalf("non-adaptive matrix changed: %v", got)
	}
	m2 := ensemble.NewMatrix(1, 2)
	m2.Set(0, 1, 0.1)
	d2 := New(Config{Sensors: 1, Classes: 2, Agg: AggWeighted, Recall: true, Matrix: m2, Adaptive: true})
	d2.Observe(res(0, 1, 0, 0.9))
	d2.Adapt(0, -1) // no consensus: no-op
	if got := m2.At(0, 1); got != 0.1 {
		t.Fatalf("matrix changed on -1 consensus: %v", got)
	}
}

func TestAccuracyAggregation(t *testing.T) {
	acc := [][]float64{{0.9, 0.1}, {0.2, 0.4}}
	d := New(Config{Sensors: 2, Classes: 2, Agg: AggAccuracy, Recall: true, AccTable: acc})
	d.Observe(res(0, 0, 0, 0.1))
	d.Observe(res(1, 1, 0, 0.9))
	if got := d.Classify(0); got != 0 {
		t.Fatalf("accuracy-weighted = %d, want 0", got)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Sensors: 0, Classes: 2},
		{Sensors: 2, Classes: 2, Agg: AggWeighted}, // no matrix
		{Sensors: 2, Classes: 2, Agg: AggAccuracy}, // no table
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestAggregationStrings(t *testing.T) {
	names := map[Aggregation]string{
		AggLatest:   "latest",
		AggMajority: "majority",
		AggWeighted: "confidence-weighted",
		AggAccuracy: "accuracy-weighted",
	}
	for agg, want := range names {
		if agg.String() != want {
			t.Fatalf("%d.String() = %q, want %q", agg, agg.String(), want)
		}
	}
}

func TestNoteFinalMovesAnticipation(t *testing.T) {
	d := New(Config{Sensors: 2, Classes: 3, Agg: AggMajority, Recall: true})
	d.Observe(res(0, 1, 0, 0.1))
	d.NoteFinal(2)
	if d.Anticipated() != 2 {
		t.Fatalf("anticipated = %d, want 2", d.Anticipated())
	}
	// Out-of-range finals are ignored.
	d.NoteFinal(-1)
	d.NoteFinal(9)
	if d.Anticipated() != 2 {
		t.Fatalf("anticipated = %d after invalid NoteFinal", d.Anticipated())
	}
}
