package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"origin/internal/tensor"
)

func randWindow(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.RandNormal(rng, 0, 1)
	return t
}

func randBatch(rng *rand.Rand, batch int, inShape []int) *tensor.Tensor {
	shape := append([]int{batch}, inShape...)
	t := tensor.New(shape...)
	t.RandNormal(rng, 0, 1)
	return t
}

func batchSlice(x *tensor.Tensor, bi int, inShape []int) *tensor.Tensor {
	n := 1
	for _, d := range inShape {
		n *= d
	}
	return tensor.FromSlice(x.Data()[bi*n:(bi+1)*n], inShape...)
}

// randHARConfig draws a random but valid HAR architecture so the batch
// equivalence property is tested across shapes, not just the default config.
func randHARConfig(rng *rand.Rand) HARConfig {
	return HARConfig{
		Channels: rng.Intn(6) + 1,
		Window:   rng.Intn(48) + 16,
		Classes:  rng.Intn(6) + 2,
		Conv1Out: rng.Intn(8) + 2,
		Conv2Out: rng.Intn(10) + 2,
		Kernel:   rng.Intn(4) + 2,
		Pool:     2,
		Hidden:   rng.Intn(24) + 4,
	}
}

// prop: ForwardBatch equals batch-many independent Forward calls within
// 1e-12 — and in fact bit for bit, which the serving determinism contract
// relies on — across random architectures and batch sizes. The fixed cases
// pin both sides of the fused-stage selection: the served stride-1 k5/pool-2
// geometry (including a pool tail and an odd channel count) and geometries
// that take the layer-by-layer path (kernel 3, stride 2).
func TestForwardBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type trial struct {
		name string
		net  *Network
	}
	var trials []trial
	for i := 0; i < 12; i++ {
		cfg := randHARConfig(rng)
		if i%3 == 2 {
			trials = append(trials, trial{fmt.Sprintf("random-shallow-%d", i), NewShallowHARNetwork(rng, cfg)})
		} else {
			trials = append(trials, trial{fmt.Sprintf("random-%d", i), NewHARNetwork(rng, cfg)})
		}
	}
	// Window 64: conv2's 26 columns leave a 2-column pool tail after the
	// 4-wide tiles.
	served := DefaultHARConfig(6, 64, 5)
	oddShallow := served
	oddShallow.Conv1Out = 5
	k3 := served
	k3.Kernel = 3
	strideConv := NewConv1D(rng, 3, 4, 5, 2)
	strideOut := strideConv.OutShape([]int{3, 40})
	pool := NewMaxPool1D(2)
	poolOut := pool.OutShape(strideOut)
	trials = append(trials,
		trial{"served-k5-pool2-tail", NewHARNetwork(rng, served)},
		trial{"shallow-k5-odd-outc", NewShallowHARNetwork(rng, oddShallow)},
		trial{"unfused-k3", NewHARNetwork(rng, k3)},
		trial{"unfused-stride2", NewNetwork([]int{3, 40},
			strideConv, NewReLU(), pool, NewFlatten(),
			NewDense(rng, poolOut[0]*poolOut[1], 4))},
	)
	for _, tr := range trials {
		net := tr.net
		// Non-zero biases make the bias/ReLU order observable.
		for _, l := range net.Layers {
			if p := l.Params(); len(p) == 2 {
				p[1].RandNormal(rng, 0, 1)
			}
		}
		batch := rng.Intn(17) + 1
		x := randBatch(rng, batch, net.InShape)
		got := net.ForwardBatch(x.Clone())
		if got.Dim(0) != batch || got.Dim(1) != net.Classes {
			t.Fatalf("%s: ForwardBatch shape %v, want (%d, %d)", tr.name, got.Shape(), batch, net.Classes)
		}
		for bi := 0; bi < batch; bi++ {
			want := net.Forward(batchSlice(x, bi, net.InShape))
			row := got.Row(bi)
			for j := 0; j < net.Classes; j++ {
				g, w := row.At(j), want.At(j)
				if math.Abs(g-w) > 1e-12 {
					t.Fatalf("%s sample %d logit %d: batch %v vs single %v", tr.name, bi, j, g, w)
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s sample %d logit %d: batch %v not bit-identical to single %v", tr.name, bi, j, g, w)
				}
			}
		}
	}
}

// prop: a batch of one is exactly the single-window Forward.
func TestForwardBatchOfOne(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	net := NewHARNetwork(rng, DefaultHARConfig(6, 64, 5))
	for trial := 0; trial < 20; trial++ {
		x := randBatch(rng, 1, net.InShape)
		got := net.ForwardBatch(x)
		want := net.Forward(batchSlice(x, 0, net.InShape))
		row := got.Row(0)
		for j := 0; j < net.Classes; j++ {
			if math.Float64bits(row.At(j)) != math.Float64bits(want.At(j)) {
				t.Fatalf("trial %d logit %d: %v vs %v", trial, j, row.At(j), want.At(j))
			}
		}
	}
}

// prop: PredictBatch returns the same class and probability vector as
// Predict on every sample, including argmax tie-breaking.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		cfg := randHARConfig(rng)
		net := NewHARNetwork(rng, cfg)
		batch := rng.Intn(9) + 1
		x := randBatch(rng, batch, net.InShape)
		classes, probs := net.PredictBatch(x)
		if len(classes) != batch {
			t.Fatalf("trial %d: got %d classes for batch %d", trial, len(classes), batch)
		}
		for bi := 0; bi < batch; bi++ {
			// PredictBatch ran first: probs lives in the arena, which the
			// per-sample Predict below does not touch (Predict allocates).
			wantClass, wantProbs := net.Predict(batchSlice(x, bi, net.InShape))
			if classes[bi] != wantClass {
				t.Fatalf("trial %d sample %d: class %d vs %d", trial, bi, classes[bi], wantClass)
			}
			row := probs.Row(bi)
			for j := 0; j < net.Classes; j++ {
				if math.Float64bits(row.At(j)) != math.Float64bits(wantProbs.At(j)) {
					t.Fatalf("trial %d sample %d prob %d: %v vs %v", trial, bi, j, row.At(j), wantProbs.At(j))
				}
			}
		}
	}
}

// prop: one arena serves varying batch sizes back to back; growing and
// shrinking batches never corrupt results.
func TestArenaReuseAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	net := NewHARNetwork(rng, DefaultHARConfig(3, 32, 4))
	for _, batch := range []int{1, 7, 2, 16, 3, 1, 12} {
		x := randBatch(rng, batch, net.InShape)
		got := net.ForwardBatch(x)
		for bi := 0; bi < batch; bi++ {
			want := net.Forward(batchSlice(x, bi, net.InShape))
			row := got.Row(bi)
			for j := 0; j < net.Classes; j++ {
				if math.Float64bits(row.At(j)) != math.Float64bits(want.At(j)) {
					t.Fatalf("batch %d sample %d logit %d: %v vs %v", batch, bi, j, row.At(j), want.At(j))
				}
			}
		}
	}
}

// After warm-up the batched forward path allocates no activation storage:
// every slab comes from the arena, so the only allocations left are a fixed
// handful of small tensor headers (Reshape views and escaping shape slices)
// whose count must not depend on the batch size.
func TestForwardBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := NewHARNetwork(rng, DefaultHARConfig(6, 64, 5))
	x16 := randBatch(rng, 16, net.InShape)
	net.ForwardBatch(x16) // warm the arena
	allocs16 := testing.AllocsPerRun(20, func() { net.ForwardBatch(x16) })
	if allocs16 > 32 {
		t.Fatalf("ForwardBatch allocates %v objects per call after warm-up", allocs16)
	}

	net2 := NewHARNetwork(rng, DefaultHARConfig(6, 64, 5))
	x2 := randBatch(rng, 2, net2.InShape)
	net2.ForwardBatch(x2)
	allocs2 := testing.AllocsPerRun(20, func() { net2.ForwardBatch(x2) })
	if allocs16 != allocs2 {
		t.Fatalf("per-call allocations scale with batch size: %v at batch 16 vs %v at batch 2", allocs16, allocs2)
	}
}

// prop: batched inference never touches training state — a training step
// after a ForwardBatch behaves exactly like one without it.
func TestForwardBatchDoesNotDisturbTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cfg := DefaultHARConfig(3, 32, 4)
	a := NewHARNetwork(rng, cfg)
	b := a.Clone()

	sample := randWindow(rng, cfg.Channels, cfg.Window)
	grad := randWindow(rng, cfg.Classes)

	// Network a: forward/backward only. Network b: a batched inference
	// wedged between forward and backward.
	a.Forward(sample)
	b.Forward(sample)
	b.ForwardBatch(randBatch(rng, 4, b.InShape))
	a.Backward(grad.Clone())
	b.Backward(grad.Clone())

	ga, gb := a.Grads(), b.Grads()
	for i := range ga {
		da, db := ga[i].Data(), gb[i].Data()
		for j := range da {
			if math.Float64bits(da[j]) != math.Float64bits(db[j]) {
				t.Fatalf("grad tensor %d elem %d: %v vs %v after interleaved ForwardBatch", i, j, da[j], db[j])
			}
		}
	}
}

// Dropout in training mode must refuse the batched path rather than silently
// skip dropout.
func TestForwardBatchPanicsOnTrainingDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	drop := NewDropout(0.5, 1)
	net := NewNetwork([]int{8}, NewDense(rng, 8, 4), drop)
	net.SetTraining(true)
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBatch with training-mode dropout did not panic")
		}
	}()
	net.ForwardBatch(randBatch(rng, 2, net.InShape))
}

// Dropout in inference mode is a transparent identity on the batched path.
func TestForwardBatchInferenceDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	net := NewNetwork([]int{8}, NewDense(rng, 8, 4), NewDropout(0.5, 1))
	x := randBatch(rng, 3, net.InShape)
	got := net.ForwardBatch(x)
	for bi := 0; bi < 3; bi++ {
		want := net.Forward(batchSlice(x, bi, net.InShape))
		row := got.Row(bi)
		for j := 0; j < 4; j++ {
			if math.Float64bits(row.At(j)) != math.Float64bits(want.At(j)) {
				t.Fatalf("sample %d logit %d: %v vs %v", bi, j, row.At(j), want.At(j))
			}
		}
	}
}

func BenchmarkNetForwardSingle(b *testing.B) {
	rng := rand.New(rand.NewSource(59))
	net := NewHARNetwork(rng, DefaultHARConfig(6, 64, 5))
	x := randWindow(rng, 6, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkNetForwardBatch16(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	net := NewHARNetwork(rng, DefaultHARConfig(6, 64, 5))
	x := randBatch(rng, 16, net.InShape)
	net.ForwardBatch(x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(x)
	}
}
