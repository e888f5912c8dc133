package dataset

import (
	"math/rand"
	"testing"

	"origin/internal/dnn"
	"origin/internal/synth"
	"origin/internal/tensor"
)

func TestMakeBalancedAndShaped(t *testing.T) {
	p := synth.MHEALTHProfile()
	samples := Make(Config{Profile: p, User: synth.NewUser(0), Location: synth.LeftAnkle, PerClass: 5, Seed: 1})
	if len(samples) != 5*p.NumClasses() {
		t.Fatalf("len = %d, want %d", len(samples), 5*p.NumClasses())
	}
	counts := ClassCounts(samples, p.NumClasses())
	for c, n := range counts {
		if n != 5 {
			t.Fatalf("class %d count = %d, want 5", c, n)
		}
	}
	for _, s := range samples {
		if s.X.Dim(0) != synth.Channels || s.X.Dim(1) != Window {
			t.Fatalf("sample shape = %v", s.X.Shape())
		}
	}
}

func TestMakeDeterministic(t *testing.T) {
	p := synth.MHEALTHProfile()
	cfg := Config{Profile: p, User: synth.NewUser(2), Location: synth.Chest, PerClass: 3, Seed: 7}
	a := Make(cfg)
	b := Make(cfg)
	for i := range a {
		if !a[i].X.Equal(b[i].X, 0) || a[i].Label != b[i].Label {
			t.Fatalf("samples diverge at %d", i)
		}
	}
}

func TestMakeAllLocationsDiffer(t *testing.T) {
	p := synth.MHEALTHProfile()
	all := make([][]dnn.Sample, synth.NumLocations)
	for _, loc := range synth.Locations() {
		all[loc] = Make(Config{Profile: p, User: synth.NewUser(0), Location: loc, PerClass: 2, Seed: 3 + int64(loc)*1000003})
	}
	// Same class, different locations should look different.
	if all[synth.Chest][0].X.Equal(all[synth.LeftAnkle][0].X, 0.01) {
		t.Fatal("chest and ankle windows are identical")
	}
}

func TestSplitStratified(t *testing.T) {
	p := synth.MHEALTHProfile()
	samples := Make(Config{Profile: p, User: synth.NewUser(0), Location: synth.RightWrist, PerClass: 10, Seed: 4})
	train, test := Split(samples, 0.8, 5)
	if len(train)+len(test) != len(samples) {
		t.Fatalf("split lost samples: %d + %d != %d", len(train), len(test), len(samples))
	}
	for c, n := range ClassCounts(train, p.NumClasses()) {
		if n != 8 {
			t.Fatalf("train class %d = %d, want 8", c, n)
		}
	}
	for c, n := range ClassCounts(test, p.NumClasses()) {
		if n != 2 {
			t.Fatalf("test class %d = %d, want 2", c, n)
		}
	}
}

func TestSplitInvalidFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split(1.5) did not panic")
		}
	}()
	Split([]dnn.Sample{{X: tensor.New(1), Label: 0}}, 1.5, 1)
}

// TestPerSensorLearnability is the core ML sanity check: a small CNN
// trained on each location's windows must reach usable accuracy, and the
// left ankle must be the strongest overall sensor (the paper's Fig. 2
// observation that drives the AAS rank table).
func TestPerSensorLearnability(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	p := synth.MHEALTHProfile()
	accs := make([]float64, synth.NumLocations)
	for _, loc := range synth.Locations() {
		samples := Make(Config{Profile: p, User: synth.NewUser(0), Location: loc, PerClass: 60, Seed: 11 + int64(loc)})
		train, test := Split(samples, 0.75, 6)
		rngSeed := int64(21 + loc)
		net := dnn.NewHARNetwork(newRand(rngSeed), dnn.DefaultHARConfig(synth.Channels, Window, p.NumClasses()))
		cfg := dnn.DefaultTrainConfig()
		cfg.Epochs = 25
		dnn.Train(net, train, cfg)
		accs[loc] = dnn.Evaluate(net, test)
		// Weak-classifier regime: usable but far from saturated.
		if accs[loc] < 0.40 {
			t.Fatalf("%s accuracy = %v, want >= 0.40", loc, accs[loc])
		}
	}
	if accs[synth.LeftAnkle] <= accs[synth.Chest] {
		t.Fatalf("ankle (%v) should beat chest (%v) overall", accs[synth.LeftAnkle], accs[synth.Chest])
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
