package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfusionBasics(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 0)
	c.Add(0, 1)
	c.Add(1, 1)
	c.Add(2, -1)
	if c.Total() != 4 {
		t.Fatalf("total = %d, want 4", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("accuracy = %v, want 0.5", got)
	}
	per := c.PerClass()
	if math.Abs(per[0]-0.5) > 1e-12 || per[1] != 1 || per[2] != 0 {
		t.Fatalf("per-class = %v", per)
	}
	if c.Missing[2] != 1 {
		t.Fatalf("missing = %v", c.Missing)
	}
}

func TestConfusionEmpty(t *testing.T) {
	c := NewConfusion(2)
	if c.Accuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
	for _, v := range c.PerClass() {
		if v != 0 {
			t.Fatal("empty per-class should be 0")
		}
	}
}

func TestConfusionPanics(t *testing.T) {
	c := NewConfusion(2)
	for _, fn := range []func(){
		func() { c.Add(-1, 0) },
		func() { c.Add(0, 5) },
		func() { NewConfusion(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestConfusionStringRenders(t *testing.T) {
	c := NewConfusion(2)
	c.Add(0, 1)
	s := c.String()
	if !strings.Contains(s, "miss") || !strings.Contains(s, "true") {
		t.Fatalf("String output missing headers:\n%s", s)
	}
}

func TestCompletionBreakdown(t *testing.T) {
	var c Completion
	c.Record(3, 3) // all
	c.Record(3, 1) // some
	c.Record(3, 0) // failed
	c.Record(1, 1) // single-sensor success counts as all
	c.Record(0, 0) // ignored
	if c.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", c.Attempts)
	}
	all, atLeast, failed := c.Rates()
	if math.Abs(all-0.5) > 1e-12 {
		t.Fatalf("all = %v, want 0.5", all)
	}
	if math.Abs(atLeast-0.75) > 1e-12 {
		t.Fatalf("atLeastOne = %v, want 0.75", atLeast)
	}
	if math.Abs(failed-0.25) > 1e-12 {
		t.Fatalf("failed = %v, want 0.25", failed)
	}
}

func TestCompletionEmptyRates(t *testing.T) {
	var c Completion
	all, some, failed := c.Rates()
	if all != 0 || some != 0 || failed != 0 {
		t.Fatal("empty completion rates should be 0")
	}
}

// prop: completion rates always sum to 1 over (atLeastOne + failed) and
// all <= atLeastOne, for any record sequence.
func TestCompletionRatesConsistentQuick(t *testing.T) {
	f := func(rounds []uint8) bool {
		var c Completion
		for _, r := range rounds {
			activated := int(r%4) + 1
			completed := int(r/4) % (activated + 1)
			c.Record(activated, completed)
		}
		all, atLeast, failed := c.Rates()
		if c.Attempts == 0 {
			return all == 0 && atLeast == 0 && failed == 0
		}
		return all <= atLeast+1e-12 && math.Abs(atLeast+failed-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// prop: confusion accuracy equals weighted mean of per-class accuracies.
func TestConfusionAccuracyDecompositionQuick(t *testing.T) {
	f := func(obs []uint8) bool {
		c := NewConfusion(4)
		totals := make([]float64, 4)
		for _, o := range obs {
			tr := int(o) % 4
			pr := (int(o) / 4 % 5) - 1 // -1..3
			c.Add(tr, pr)
			totals[tr]++
		}
		per := c.PerClass()
		want := 0.0
		n := 0.0
		for t2 := 0; t2 < 4; t2++ {
			want += per[t2] * totals[t2]
			n += totals[t2]
		}
		if n == 0 {
			return c.Accuracy() == 0
		}
		return math.Abs(c.Accuracy()-want/n) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPerClassF1KnownValues(t *testing.T) {
	c := NewConfusion(2)
	// Class 0: tp=2, predicted as 0: 3 (one false positive), actual 0: 2.
	c.Add(0, 0)
	c.Add(0, 0)
	c.Add(1, 0)
	// Class 1: tp=1, predicted 1, actual 2 (one went to class 0).
	c.Add(1, 1)
	f1 := c.PerClassF1()
	// class 0: precision 2/3, recall 1 → F1 = 0.8
	if math.Abs(f1[0]-0.8) > 1e-12 {
		t.Fatalf("F1[0] = %v, want 0.8", f1[0])
	}
	// class 1: precision 1, recall 1/2 → F1 = 2/3
	if math.Abs(f1[1]-2.0/3) > 1e-12 {
		t.Fatalf("F1[1] = %v, want 2/3", f1[1])
	}
	if got := c.MacroF1(); math.Abs(got-(0.8+2.0/3)/2) > 1e-12 {
		t.Fatalf("MacroF1 = %v", got)
	}
}

func TestMacroF1SkipsAbsentClasses(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 0)
	c.Add(0, 0)
	// Classes 1 and 2 never occur as true labels.
	if got := c.MacroF1(); got != 1 {
		t.Fatalf("MacroF1 = %v, want 1 (absent classes skipped)", got)
	}
}

func TestF1MissingCountsAgainstRecall(t *testing.T) {
	c := NewConfusion(2)
	c.Add(0, 0)
	c.Add(0, -1) // missing
	f1 := c.PerClassF1()
	// precision 1, recall 1/2 → 2/3
	if math.Abs(f1[0]-2.0/3) > 1e-12 {
		t.Fatalf("F1[0] = %v, want 2/3", f1[0])
	}
}
