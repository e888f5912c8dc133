package dnn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"origin/internal/tensor"
)

// prop: the int8 accuracy-parity gate — on a trained network the quantized
// path loses at most 0.5 accuracy points versus the float path on held-out
// data. This is the same bound the serving rollout enforces.
func TestQuantizedNetworkAccuracyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	train := makeBlobs(rng, 300, 2, 16, 3)
	test := makeBlobs(rng, 200, 2, 16, 3)
	n := buildTinyNet(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	Train(n, train, cfg)
	full := Evaluate(n, test)
	if full < 0.9 {
		t.Fatalf("float baseline only reached %v; parity test needs a trained net", full)
	}

	q, err := NewQuantizedNetwork(n)
	if err != nil {
		t.Fatalf("NewQuantizedNetwork: %v", err)
	}
	qacc := EvaluateQuantized(q, test)
	if qacc < full-0.005 {
		t.Fatalf("int8 accuracy %v dropped more than 0.5 pt below float %v", qacc, full)
	}
	// Compilation must not mutate the source network.
	if got := Evaluate(n, test); got != full {
		t.Fatal("NewQuantizedNetwork mutated the source network")
	}
}

// prop: batched int8 inference is bit-identical to single-window inference —
// the integer determinism contract the serving path relies on. Exact
// equality, not a tolerance.
func TestQuantizedBatchMatchesSingleExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := buildTinyNet(t)
	q, err := NewQuantizedNetwork(n)
	if err != nil {
		t.Fatalf("NewQuantizedNetwork: %v", err)
	}
	single, err := NewQuantizedNetwork(n)
	if err != nil {
		t.Fatalf("NewQuantizedNetwork: %v", err)
	}
	for _, batch := range []int{1, 3, 16} {
		x := tensor.New(batch, 2, 16)
		x.RandNormal(rng, 0, 1)
		classes, probs := q.PredictBatch(x)
		for bi := 0; bi < batch; bi++ {
			row := probs.Row(bi).Clone()
			win := tensor.FromSlice(append([]float64(nil), x.Data()[bi*32:(bi+1)*32]...), 2, 16)
			c, p := single.Predict(win)
			if c != classes[bi] {
				t.Fatalf("batch %d row %d: class %d vs single %d", batch, bi, classes[bi], c)
			}
			for j := range row.Data() {
				if row.Data()[j] != p.Data()[j] {
					t.Fatalf("batch %d row %d prob[%d]: %v vs single %v (must be bit-identical)",
						batch, bi, j, row.Data()[j], p.Data()[j])
				}
			}
		}
	}
}

// prop: the resident quantized model is at least 7× smaller than the float64
// parameters on the HAR serving geometry (the "~8× smaller" claim; biases and
// per-channel scales are billed at float32).
func TestQuantizedModelBytesRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for name, n := range map[string]*Network{
		"shallow": NewShallowHARNetwork(rng, DefaultHARConfig(6, 64, 5)),
		"deep":    NewHARNetwork(rng, DefaultHARConfig(6, 64, 5)),
	} {
		q, err := NewQuantizedNetwork(n)
		if err != nil {
			t.Fatalf("%s: NewQuantizedNetwork: %v", name, err)
		}
		ratio := float64(q.FloatBytes()) / float64(q.ModelBytes())
		if ratio < 7.0 {
			t.Fatalf("%s: model bytes %d vs float %d is only %.2f× smaller, want ≥7×",
				name, q.ModelBytes(), q.FloatBytes(), ratio)
		}
	}
}

// prop: architectures the integer stages cannot express fail loudly at
// compile time instead of silently running float.
func TestQuantizedNetworkRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// A leading ReLU has no conv or dense stage to fold into.
	n := NewNetwork([]int{2, 16}, NewReLU(), NewFlatten(), NewDense(rng, 32, 3))
	if _, err := NewQuantizedNetwork(n); err == nil {
		t.Fatal("expected an error for a standalone ReLU")
	}
	// A conv head (no dense output) cannot emit float logits.
	conv := &Network{
		Layers:  []Layer{NewConv1D(rng, 1, 3, 4, 1), NewFlatten()},
		InShape: []int{1, 4},
		Classes: 3,
	}
	if _, err := NewQuantizedNetwork(conv); err == nil {
		t.Fatal("expected an error for a network without a dense head")
	}
}

// prop: an all-zero window produces finite probabilities, and clones can
// score concurrently because scratch is per-clone.
func TestQuantizedNetworkZeroInputAndClones(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n := buildTinyNet(t)
	q, err := NewQuantizedNetwork(n)
	if err != nil {
		t.Fatalf("NewQuantizedNetwork: %v", err)
	}
	_, probs := q.Predict(tensor.New(2, 16))
	sum := 0.0
	for _, p := range probs.Data() {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("zero input produced invalid prob %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("zero-input probs sum to %v", sum)
	}

	x := tensor.New(2, 16)
	x.RandNormal(rng, 0, 1)
	wantClass, wantProbs := q.Predict(x)
	want := wantProbs.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := q.Clone()
			for it := 0; it < 50; it++ {
				class, probs := c.Predict(x)
				if class != wantClass || !probs.Equal(want, 0) {
					t.Errorf("clone diverged from template result")
					return
				}
			}
		}()
	}
	wg.Wait()
}
