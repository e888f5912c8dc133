package dnn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"origin/internal/tensor"
)

// numericalGrad estimates dL/dθ for a single parameter element by central
// differences, where L is the cross-entropy of the network on (x, label).
func numericalGrad(n *Network, x *tensor.Tensor, label int, p *tensor.Tensor, i int) float64 {
	const h = 1e-5
	d := p.Data()
	orig := d[i]
	d[i] = orig + h
	lossPlus, _ := SmoothedCrossEntropyLoss(n.Forward(x), label, 0)
	d[i] = orig - h
	lossMinus, _ := SmoothedCrossEntropyLoss(n.Forward(x), label, 0)
	d[i] = orig
	return (lossPlus - lossMinus) / (2 * h)
}

func buildTinyNet(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return NewHARNetwork(rng, HARConfig{
		Channels: 2, Window: 16, Classes: 3,
		Conv1Out: 3, Conv2Out: 4, Kernel: 3, Pool: 2, Hidden: 6,
	})
}

func TestGradientCheckWholeNetwork(t *testing.T) {
	n := buildTinyNet(t)
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(2, 16)
	x.RandNormal(rng, 0, 1)
	label := 1

	n.ZeroGrads()
	logits := n.Forward(x)
	_, grad := SmoothedCrossEntropyLoss(logits, label, 0)
	n.Backward(grad)

	params := n.Params()
	grads := n.Grads()
	checked := 0
	for pi, p := range params {
		// Spot-check a handful of elements per parameter tensor.
		step := p.Len()/5 + 1
		for i := 0; i < p.Len(); i += step {
			want := numericalGrad(n, x, label, p, i)
			got := grads[pi].Data()[i]
			if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %d elem %d: analytic %v vs numeric %v", pi, i, got, want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only checked %d gradient elements", checked)
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	l := &Dense{In: 2, Out: 2,
		W:  tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2),
		B:  tensor.FromSlice([]float64{10, 20}, 2),
		dW: tensor.New(2, 2), dB: tensor.New(2),
	}
	y := l.Forward(tensor.FromSlice([]float64{1, 1}, 2))
	if y.At(0) != 13 || y.At(1) != 27 {
		t.Fatalf("Dense forward = %v, want [13 27]", y.Data())
	}
}

func TestConv1DForwardKnownValues(t *testing.T) {
	// 1 input channel, 1 output channel, kernel [1 0 -1], stride 1.
	l := &Conv1D{InC: 1, OutC: 1, Kernel: 3, Stride: 1,
		W:  tensor.FromSlice([]float64{1, 0, -1}, 1, 3),
		B:  tensor.FromSlice([]float64{0.5}, 1),
		dW: tensor.New(1, 3), dB: tensor.New(1),
	}
	x := tensor.FromSlice([]float64{1, 2, 4, 7, 11}, 1, 5)
	y := l.Forward(x)
	// y[t] = x[t] - x[t+2] + 0.5
	want := []float64{1 - 4 + 0.5, 2 - 7 + 0.5, 4 - 11 + 0.5}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("conv out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	l := NewMaxPool1D(2)
	x := tensor.FromSlice([]float64{1, 5, 3, 2, 8, 6}, 1, 6)
	y := l.Forward(x)
	want := []float64{5, 3, 8}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("pool out[%d] = %v, want %v", i, v, want[i])
		}
	}
	g := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	dx := l.Backward(g)
	wantDx := []float64{0, 1, 2, 0, 3, 0}
	for i, v := range dx.Data() {
		if v != wantDx[i] {
			t.Fatalf("pool dx[%d] = %v, want %v", i, v, wantDx[i])
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x := tensor.FromSlice([]float64{-1, 2, -3, 4}, 4)
	y := l.Forward(x)
	want := []float64{0, 2, 0, 4}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("relu out[%d] = %v, want %v", i, v, want[i])
		}
	}
	g := tensor.FromSlice([]float64{10, 10, 10, 10}, 4)
	dx := l.Backward(g)
	wantDx := []float64{0, 10, 0, 10}
	for i, v := range dx.Data() {
		if v != wantDx[i] {
			t.Fatalf("relu dx[%d] = %v, want %v", i, v, wantDx[i])
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten()
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := l.Forward(x)
	if y.Dims() != 1 || y.Len() != 6 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	back := l.Backward(y)
	if back.Dims() != 2 || back.Dim(0) != 2 || back.Dim(1) != 3 {
		t.Fatalf("flatten backward shape = %v", back.Shape())
	}
}

func TestCrossEntropyLoss(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 0}, 3)
	loss, grad := SmoothedCrossEntropyLoss(logits, 1, 0)
	if math.Abs(loss-math.Log(3)) > 1e-9 {
		t.Fatalf("uniform loss = %v, want ln(3)", loss)
	}
	// grad = p - onehot: [1/3, 1/3-1, 1/3]
	if math.Abs(grad.At(0)-1.0/3) > 1e-9 || math.Abs(grad.At(1)+2.0/3) > 1e-9 {
		t.Fatalf("grad = %v", grad.Data())
	}
	// Gradient sums to zero.
	if math.Abs(grad.Sum()) > 1e-12 {
		t.Fatalf("grad sum = %v, want 0", grad.Sum())
	}
}

// makeBlobs builds a linearly-separable synthetic dataset: class c has its
// channel means offset by c.
func makeBlobs(rng *rand.Rand, n, channels, window, classes int) []Sample {
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		label := i % classes
		x := tensor.New(channels, window)
		x.RandNormal(rng, float64(label)*1.5, 0.4)
		samples = append(samples, Sample{X: x, Label: label})
	}
	return samples
}

func TestTrainConvergesOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := makeBlobs(rng, 120, 2, 16, 3)
	test := makeBlobs(rng, 60, 2, 16, 3)
	n := buildTinyNet(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	Train(n, train, cfg)
	acc := Evaluate(n, test)
	if acc < 0.9 {
		t.Fatalf("accuracy after training = %v, want >= 0.9", acc)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(10))
	rng2 := rand.New(rand.NewSource(10))
	cfgNet := HARConfig{Channels: 2, Window: 16, Classes: 3, Conv1Out: 3, Conv2Out: 4, Kernel: 3, Pool: 2, Hidden: 6}
	n1 := NewHARNetwork(rng1, cfgNet)
	n2 := NewHARNetwork(rng2, cfgNet)
	data := makeBlobs(rand.New(rand.NewSource(11)), 60, 2, 16, 3)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	Train(n1, data, cfg)
	Train(n2, data, cfg)
	p1, p2 := n1.Params(), n2.Params()
	for i := range p1 {
		if !p1[i].Equal(p2[i], 0) {
			t.Fatalf("training is not deterministic: param %d differs", i)
		}
	}
}

func TestEvaluatePerClass(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	train := makeBlobs(rng, 120, 2, 16, 3)
	n := buildTinyNet(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	Train(n, train, cfg)
	perClass, overall := EvaluatePerClass(n, train, 3)
	if len(perClass) != 3 {
		t.Fatalf("perClass length = %d", len(perClass))
	}
	sum := 0.0
	for _, a := range perClass {
		sum += a
	}
	if overall <= 0 || overall > 1 {
		t.Fatalf("overall = %v", overall)
	}
	// Balanced classes: mean of per-class accuracy equals overall.
	if math.Abs(sum/3-overall) > 1e-9 {
		t.Fatalf("per-class mean %v != overall %v for balanced data", sum/3, overall)
	}
}

func TestPruneToBudgetRespectsBudget(t *testing.T) {
	n := buildTinyNet(t)
	before := n.MACs()
	budget := before / 2
	res := PruneToBudget(n, budget)
	if res.MACsAfter > budget {
		t.Fatalf("MACs after prune = %d, budget %d", res.MACsAfter, budget)
	}
	if res.MACsBefore != before {
		t.Fatalf("MACsBefore = %d, want %d", res.MACsBefore, before)
	}
	if res.Sparsity <= 0 {
		t.Fatalf("sparsity = %v, want > 0", res.Sparsity)
	}
	if n.MACs() != res.MACsAfter {
		t.Fatalf("network MACs %d disagree with result %d", n.MACs(), res.MACsAfter)
	}
}

func TestPruneNoOpWhenUnderBudget(t *testing.T) {
	n := buildTinyNet(t)
	res := PruneToBudget(n, n.MACs()+1)
	if res.Sparsity != 0 || res.MACsAfter != res.MACsBefore {
		t.Fatalf("prune should be a no-op when under budget: %+v", res)
	}
}

func TestPruneKeepsAccuracyAfterFineTune(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	train := makeBlobs(rng, 150, 2, 16, 3)
	test := makeBlobs(rng, 60, 2, 16, 3)
	n := buildTinyNet(t)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	Train(n, train, cfg)
	PruneToBudget(n, int(math.Ceil(float64(n.MACs())*0.5)))
	ft := cfg
	ft.Epochs = 8
	ft.LearningRate = 0.005
	FineTune(n, train, ft)
	// Pruned weights must stay exactly zero after fine-tuning.
	zeros := 0
	for _, p := range weightTensors(n) {
		for _, v := range p.Data() {
			if v == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatal("fine-tuning resurrected all pruned weights")
	}
	acc := Evaluate(n, test)
	if acc < 0.8 {
		t.Fatalf("pruned+fine-tuned accuracy = %v, want >= 0.8", acc)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := buildTinyNet(t)
	c := n.Clone()
	rng := rand.New(rand.NewSource(14))
	x := tensor.New(2, 16)
	x.RandNormal(rng, 0, 1)
	want := n.Forward(x)
	got := c.Forward(x)
	if !want.Equal(got, 1e-12) {
		t.Fatal("clone produces different output")
	}
	// Mutate the clone; the original must not change.
	c.Params()[0].Fill(0)
	after := n.Forward(x)
	if !want.Equal(after, 1e-12) {
		t.Fatal("mutating clone changed original network")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := buildTinyNet(t)
	// Make weights distinctive.
	for _, p := range n.Params() {
		p.RandNormal(rng, 0, 1)
	}
	var buf bytes.Buffer
	if err := Save(&buf, n); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	x := tensor.New(2, 16)
	x.RandNormal(rng, 0, 1)
	want := n.Forward(x)
	got := m.Forward(x)
	if !want.Equal(got, 0) {
		t.Fatal("loaded network output differs from saved network")
	}
	if m.Classes != n.Classes || m.MACs() != n.MACs() {
		t.Fatalf("metadata mismatch: classes %d/%d macs %d/%d", m.Classes, n.Classes, m.MACs(), n.MACs())
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	_, err := Load(bytes.NewBufferString("NOTMODEL and more bytes"))
	if err == nil {
		t.Fatal("Load accepted bad magic")
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	n := buildTinyNet(t)
	path := t.TempDir() + "/model.bin"
	if err := SaveFile(path, n); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	m, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if m.ParamCount() != n.ParamCount() {
		t.Fatalf("param count %d != %d", m.ParamCount(), n.ParamCount())
	}
}

func TestEnergyModel(t *testing.T) {
	n := buildTinyNet(t)
	m := DefaultEnergyModel()
	e := m.InferenceEnergy(n)
	if e <= m.BaselineOverhead {
		t.Fatalf("inference energy %v should exceed the fixed overhead", e)
	}
	before := e
	PruneToBudget(n, int(math.Ceil(float64(n.MACs())*0.3)))
	after := m.InferenceEnergy(n)
	if after >= before {
		t.Fatalf("pruning should reduce inference energy: %v -> %v", before, after)
	}
}

// prop: pruning to any fraction f in (0,1] never increases MACs and the
// result never exceeds ceil(f × original).
func TestPruneBudgetPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := NewHARNetwork(r, HARConfig{
			Channels: 2, Window: 16, Classes: 3,
			Conv1Out: 3, Conv2Out: 4, Kernel: 3, Pool: 2, Hidden: 6,
		})
		frac := 0.1 + 0.9*r.Float64()
		before := n.MACs()
		budget := int(math.Ceil(float64(before) * frac))
		res := PruneToBudget(n, budget)
		return res.MACsAfter <= budget && res.MACsAfter <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// prop: softmax probabilities from Predict always sum to 1 and the predicted
// class is a valid index.
func TestPredictIsDistributionQuick(t *testing.T) {
	n := buildTinyNet(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.New(2, 16)
		x.RandNormal(r, 0, 3)
		c, p := n.Predict(x)
		if c < 0 || c >= n.Classes {
			return false
		}
		return math.Abs(p.Sum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForwardHARNet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := NewHARNetwork(rng, DefaultHARConfig(6, 64, 6))
	x := tensor.New(6, 64)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := NewHARNetwork(rng, DefaultHARConfig(6, 64, 6))
	x := tensor.New(6, 64)
	x.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ZeroGrads()
		logits := n.Forward(x)
		_, grad := SmoothedCrossEntropyLoss(logits, i%6, 0)
		n.Backward(grad)
	}
}

func TestLoadNeverPanicsQuick(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Load(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Including a valid prefix followed by garbage.
	n := buildTinyNet(t)
	var buf bytes.Buffer
	if err := Save(&buf, n); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut += buf.Len() / 17 {
		if _, err := Load(bytes.NewReader(buf.Bytes()[:cut])); err == nil && cut < buf.Len()-1 {
			t.Fatalf("truncated model at %d bytes loaded without error", cut)
		}
	}
}

func TestCalibrateLabelSmoothingSharpensConfidenceSignal(t *testing.T) {
	// The reproduction's own finding: label smoothing makes the
	// softmax-variance confidence measure *discriminative* — correct
	// predictions separate from wrong ones — which the Origin confidence
	// matrix depends on. Compare correct vs wrong mean variance on a noisy
	// (imperfectly separable) task.
	rng := rand.New(rand.NewSource(82))
	noisy := func(n int) []Sample {
		samples := make([]Sample, 0, n)
		for i := 0; i < n; i++ {
			label := i % 3
			x := tensor.New(2, 16)
			x.RandNormal(rng, float64(label)*0.9, 0.8)
			samples = append(samples, Sample{X: x, Label: label})
		}
		return samples
	}
	train, test := noisy(240), noisy(120)
	net := NewHARNetwork(rand.New(rand.NewSource(7)), HARConfig{
		Channels: 2, Window: 16, Classes: 3,
		Conv1Out: 3, Conv2Out: 4, Kernel: 3, Pool: 2, Hidden: 6,
	})
	cfg := DefaultTrainConfig()
	cfg.Epochs = 25
	cfg.LabelSmoothing = 0.1
	Train(net, train, cfg)
	var cSum, wSum float64
	var cN, wN int
	for _, s := range test {
		pred, probs := net.Predict(s.X)
		v := probs.Variance()
		if pred == s.Label {
			cSum += v
			cN++
		} else {
			wSum += v
			wN++
		}
	}
	if cN == 0 || wN == 0 {
		t.Skip("degenerate split")
	}
	ratio := (cSum / float64(cN)) / (wSum / float64(wN))
	if ratio < 1.05 {
		t.Fatalf("smoothed confidence ratio = %v, want correct clearly above wrong", ratio)
	}
}
