package dnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"origin/internal/tensor"
)

func TestQuantizePreservesShapeAndBounds(t *testing.T) {
	n := buildTinyNet(t)
	rep := Quantize(n, 8)
	if rep.Bits != 8 {
		t.Fatalf("bits = %d", rep.Bits)
	}
	if rep.ModelBytes >= rep.FloatBytes {
		t.Fatalf("quantized footprint %d should be below float %d", rep.ModelBytes, rep.FloatBytes)
	}
	// With 8 bits the max error is bounded by half a step of the largest
	// weight: maxAbs/127/2 per tensor.
	for _, p := range n.Params() {
		if p.Dims() != 2 {
			continue
		}
		maxAbs := 0.0
		for _, v := range p.Data() {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		_ = maxAbs
	}
	if rep.MaxAbsErr <= 0 {
		t.Fatal("expected some quantization error")
	}
}

func TestQuantizeAccuracyDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	train := makeBlobs(rng, 150, 2, 16, 3)
	test := makeBlobs(rng, 60, 2, 16, 3)
	n := buildTinyNet(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	Train(n, train, cfg)
	full := Evaluate(n, test)

	q8, _ := QuantizedClone(n, 8)
	acc8 := Evaluate(q8, test)
	if acc8 < full-0.05 {
		t.Fatalf("8-bit accuracy %v dropped too far from %v", acc8, full)
	}
	q2, _ := QuantizedClone(n, 2)
	acc2 := Evaluate(q2, test)
	if acc2 > acc8+0.05 {
		t.Fatalf("2-bit (%v) should not beat 8-bit (%v)", acc2, acc8)
	}
	// Original must be untouched by QuantizedClone.
	if got := Evaluate(n, test); got != full {
		t.Fatal("QuantizedClone mutated the original network")
	}
}

func TestQuantizePreservesPruningSparsity(t *testing.T) {
	n := buildTinyNet(t)
	PruneToBudget(n, int(math.Ceil(float64(n.MACs())*0.5)))
	before := n.NonZeroParamCount()
	Quantize(n, 8)
	if got := n.NonZeroParamCount(); got > before {
		t.Fatalf("quantization resurrected pruned weights: %d > %d", got, before)
	}
}

func TestQuantizeInvalidBitsPanics(t *testing.T) {
	n := buildTinyNet(t)
	for _, bits := range []int{0, 1, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantize(%d) did not panic", bits)
				}
			}()
			Quantize(n, bits)
		}()
	}
}

// prop: quantized weights land on the per-tensor grid: w = k·scale for
// integer k with |k| ≤ levels.
func TestQuantizeGridQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 2 + rng.Intn(7)
		n := NewHARNetwork(rng, HARConfig{
			Channels: 2, Window: 16, Classes: 3,
			Conv1Out: 3, Conv2Out: 4, Kernel: 3, Pool: 2, Hidden: 6,
		})
		Quantize(n, bits)
		levels := float64(int(1)<<(bits-1)) - 1
		for _, p := range n.Params() {
			if p.Dims() != 2 {
				continue
			}
			maxAbs := 0.0
			for _, v := range p.Data() {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs == 0 {
				continue
			}
			scale := maxAbs / levels
			for _, v := range p.Data() {
				k := v / scale
				if math.Abs(k-math.Round(k)) > 1e-9 {
					return false
				}
				if math.Abs(math.Round(k)) > levels+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// fakeParamLayer is a parameter-bearing layer Quantize has no classification
// rule for.
type fakeParamLayer struct{ p *tensor.Tensor }

func (f *fakeParamLayer) Name() string                             { return "fake" }
func (f *fakeParamLayer) Forward(x *tensor.Tensor) *tensor.Tensor  { return x }
func (f *fakeParamLayer) Backward(g *tensor.Tensor) *tensor.Tensor { return g }
func (f *fakeParamLayer) Params() []*tensor.Tensor                 { return []*tensor.Tensor{f.p} }
func (f *fakeParamLayer) Grads() []*tensor.Tensor                  { return []*tensor.Tensor{f.p} }
func (f *fakeParamLayer) MACs() int                                { return 0 }
func (f *fakeParamLayer) OutShape(in []int) []int                  { return in }

// prop (regression): Quantize classifies parameters by layer role, not
// tensor rank — biases are never perturbed regardless of their shape, the
// byte accounting matches the explicit per-layer weight/bias split, and a
// layer it has no rule for fails loudly instead of guessing by rank.
func TestQuantizeClassifiesParamsExplicitly(t *testing.T) {
	n := buildTinyNet(t)
	wantW, wantB := 0, 0
	var biases [][]float64
	for _, l := range n.Layers {
		switch tl := l.(type) {
		case *Conv1D:
			wantW += tl.W.Len()
			wantB += tl.B.Len()
			biases = append(biases, append([]float64(nil), tl.B.Data()...))
		case *Dense:
			wantW += tl.W.Len()
			wantB += tl.B.Len()
			biases = append(biases, append([]float64(nil), tl.B.Data()...))
		}
	}
	rep := Quantize(n, 8)
	if want := wantW + wantB*4; rep.ModelBytes != want {
		t.Errorf("ModelBytes = %d, want %d (weights %d + 4·biases %d)", rep.ModelBytes, want, wantW, wantB)
	}
	bi := 0
	for _, l := range n.Layers {
		var b *tensor.Tensor
		switch tl := l.(type) {
		case *Conv1D:
			b = tl.B
		case *Dense:
			b = tl.B
		default:
			continue
		}
		for j, v := range b.Data() {
			if v != biases[bi][j] {
				t.Fatalf("layer %s bias[%d] perturbed: %v -> %v", l.Name(), j, biases[bi][j], v)
			}
		}
		bi++
	}

	bad := &Network{Layers: []Layer{&fakeParamLayer{p: tensor.New(3)}}, InShape: []int{3}, Classes: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantize accepted a layer it cannot classify")
		}
	}()
	Quantize(bad, 8)
}

func TestQuantizeZeroNetworkNoop(t *testing.T) {
	n := buildTinyNet(t)
	for _, p := range n.Params() {
		p.Zero()
	}
	rep := Quantize(n, 8)
	if rep.MaxAbsErr != 0 {
		t.Fatalf("zero network should quantize exactly, err=%v", rep.MaxAbsErr)
	}
	x := tensor.New(2, 16)
	out := n.Forward(x)
	for _, v := range out.Data() {
		if v != 0 {
			t.Fatal("zero network output changed")
		}
	}
}
