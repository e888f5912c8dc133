// Package dnn is a from-scratch deep-learning stack sufficient to train and
// run the small per-sensor 1-D CNN classifiers that Origin deploys on each
// energy-harvesting node.
//
// It substitutes for the paper's Keras-trained networks (Ha & Choi 2016 /
// Rueda et al. 2018 style): single-sample forward/backward passes over
// internal/tensor, SGD-with-momentum training, cross-entropy loss,
// magnitude-based energy-aware pruning (the Baseline-2 construction), MAC and
// energy accounting for the intermittent-compute model, and a versioned
// binary serialization format.
//
// Training layers operate on single samples: inputs are (channels, width)
// tensors for convolutional layers and flat vectors for dense layers. For
// serving, every layer additionally implements ForwardBatch (see batch.go),
// an inference-only path over a leading batch dimension that lowers to the
// register-blocked GEMM kernels in internal/tensor and is bit-identical,
// per window, to the single-sample Forward path.
package dnn

import (
	"fmt"
	"math/rand"

	"origin/internal/tensor"
)

// Layer is one differentiable stage of a network.
//
// Forward consumes the previous activation and caches whatever it needs for
// the backward pass. Backward consumes dL/d(output) and returns dL/d(input),
// accumulating parameter gradients internally. Layers are therefore stateful
// and not safe for concurrent use; clone the network per goroutine instead
// (see Network.Clone).
type Layer interface {
	// Name returns a short human-readable layer descriptor.
	Name() string
	// Forward runs the layer on one sample.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward propagates the output gradient and returns the input gradient.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns the gradient tensors matching Params element-for-element.
	Grads() []*tensor.Tensor
	// MACs returns the multiply-accumulate count of one forward pass,
	// counting only multiplications by non-zero weights so that pruned
	// (sparse) layers report their reduced cost.
	MACs() int
	// OutShape maps an input shape to the layer's output shape.
	OutShape(in []int) []int
}

// --- Conv1D -------------------------------------------------------------------

// Conv1D is a 1-D convolution over (channels, width) inputs with no padding.
// Weights have shape (outChannels, inChannels*kernel); bias is (outChannels).
type Conv1D struct {
	InC, OutC, Kernel, Stride int

	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor

	lastCols *tensor.Tensor // cached im2col of the last input
	lastInW  int
}

// NewConv1D builds a He-initialised convolution layer.
func NewConv1D(rng *rand.Rand, inC, outC, kernel, stride int) *Conv1D {
	if inC <= 0 || outC <= 0 || kernel <= 0 || stride <= 0 {
		panic(fmt.Sprintf("dnn: invalid Conv1D geometry inC=%d outC=%d k=%d s=%d", inC, outC, kernel, stride))
	}
	l := &Conv1D{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride,
		W:  tensor.New(outC, inC*kernel),
		B:  tensor.New(outC),
		dW: tensor.New(outC, inC*kernel),
		dB: tensor.New(outC),
	}
	l.W.HeNormal(rng, inC*kernel)
	return l
}

func (l *Conv1D) Name() string {
	return fmt.Sprintf("conv1d(%d→%d,k=%d,s=%d)", l.InC, l.OutC, l.Kernel, l.Stride)
}

func (l *Conv1D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(0) != l.InC {
		panic(fmt.Sprintf("dnn: %s got input %v", l.Name(), x.Shape()))
	}
	l.lastInW = x.Dim(1)
	l.lastCols = tensor.Im2Col1D(x, l.Kernel, l.Stride)
	// out[o][t] = sum_j W[o][j] * cols[t][j] + b[o]  → W × colsᵀ
	out := tensor.MatMulT(l.W, l.lastCols) // (outC, outW)
	outW := out.Dim(1)
	for o := 0; o < l.OutC; o++ {
		b := l.B.At(o)
		row := out.Data()[o*outW : (o+1)*outW]
		for t := range row {
			row[t] += b
		}
	}
	return out
}

func (l *Conv1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastCols == nil {
		panic("dnn: Conv1D.Backward before Forward")
	}
	outW := grad.Dim(1)
	// dB[o] += sum_t grad[o][t]
	for o := 0; o < l.OutC; o++ {
		row := grad.Data()[o*outW : (o+1)*outW]
		s := 0.0
		for _, v := range row {
			s += v
		}
		l.dB.Data()[o] += s
	}
	// dW += grad × cols   (outC,outW)×(outW,inC*k)
	l.dW.Add(tensor.MatMul(grad, l.lastCols))
	// dCols = gradᵀ × W   (outW, inC*k)
	dCols := tensor.MatTMul(grad, l.W)
	return tensor.Col2Im1D(dCols, l.InC, l.lastInW, l.Kernel, l.Stride)
}

func (l *Conv1D) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }
func (l *Conv1D) Grads() []*tensor.Tensor  { return []*tensor.Tensor{l.dW, l.dB} }

// MACs counts non-zero weight multiplications for one forward pass, so a
// magnitude-pruned layer reports proportionally fewer MACs. The output width
// is only known relative to an input width; MACs assumes the width seen by
// the most recent Forward, falling back to a symbolic per-output-position
// count of non-zero weights if the layer has never run.
func (l *Conv1D) MACs() int {
	nz := nonZeroCount(l.W)
	outW := 1
	if l.lastInW >= l.Kernel {
		outW = (l.lastInW-l.Kernel)/l.Stride + 1
	}
	return nz * outW
}

func (l *Conv1D) OutShape(in []int) []int {
	if len(in) != 2 {
		panic(fmt.Sprintf("dnn: %s OutShape got %v", l.Name(), in))
	}
	return []int{l.OutC, (in[1]-l.Kernel)/l.Stride + 1}
}

// --- Dense --------------------------------------------------------------------

// Dense is a fully-connected layer over flat vectors: y = Wx + b.
// Weights have shape (out, in).
type Dense struct {
	In, Out int

	W, B   *tensor.Tensor
	dW, dB *tensor.Tensor

	lastX *tensor.Tensor
}

// NewDense builds a Glorot-initialised fully-connected layer.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("dnn: invalid Dense geometry in=%d out=%d", in, out))
	}
	l := &Dense{
		In: in, Out: out,
		W:  tensor.New(out, in),
		B:  tensor.New(out),
		dW: tensor.New(out, in),
		dB: tensor.New(out),
	}
	l.W.GlorotUniform(rng, in, out)
	return l
}

func (l *Dense) Name() string { return fmt.Sprintf("dense(%d→%d)", l.In, l.Out) }

func (l *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	flat := x
	if x.Dims() != 1 {
		flat = x.Reshape(x.Len())
	}
	if flat.Len() != l.In {
		panic(fmt.Sprintf("dnn: %s got input of length %d", l.Name(), flat.Len()))
	}
	l.lastX = flat.Clone()
	y := tensor.MatVec(l.W, flat)
	y.Add(l.B)
	return y
}

func (l *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic("dnn: Dense.Backward before Forward")
	}
	l.dB.Add(grad)
	// dW[o][i] += grad[o] * x[i]
	gd, xd, wd := grad.Data(), l.lastX.Data(), l.dW.Data()
	for o := 0; o < l.Out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		row := wd[o*l.In : (o+1)*l.In]
		for i, xv := range xd {
			row[i] += g * xv
		}
	}
	// dX[i] = sum_o W[o][i] * grad[o]
	dx := tensor.New(l.In)
	dxd, w := dx.Data(), l.W.Data()
	for o := 0; o < l.Out; o++ {
		g := gd[o]
		if g == 0 {
			continue
		}
		row := w[o*l.In : (o+1)*l.In]
		for i, wv := range row {
			dxd[i] += wv * g
		}
	}
	return dx
}

func (l *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }
func (l *Dense) Grads() []*tensor.Tensor  { return []*tensor.Tensor{l.dW, l.dB} }
func (l *Dense) MACs() int                { return nonZeroCount(l.W) }

func (l *Dense) OutShape(in []int) []int { return []int{l.Out} }

// --- ReLU ---------------------------------------------------------------------

// ReLU is the rectified-linear activation, applied elementwise.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

func (l *ReLU) Name() string { return "relu" }

func (l *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	if cap(l.mask) < len(d) {
		l.mask = make([]bool, len(d))
	}
	l.mask = l.mask[:len(d)]
	for i, v := range d {
		if v > 0 {
			l.mask[i] = true
		} else {
			l.mask[i] = false
			d[i] = 0
		}
	}
	return out
}

func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	d := out.Data()
	for i := range d {
		if !l.mask[i] {
			d[i] = 0
		}
	}
	return out
}

func (l *ReLU) Params() []*tensor.Tensor { return nil }
func (l *ReLU) Grads() []*tensor.Tensor  { return nil }
func (l *ReLU) MACs() int                { return 0 }
func (l *ReLU) OutShape(in []int) []int  { return append([]int(nil), in...) }

// --- MaxPool1D ------------------------------------------------------------------

// MaxPool1D max-pools each channel over non-overlapping windows of the given
// size along the time axis. Trailing samples that do not fill a window are
// dropped, matching common CNN-for-HAR practice.
type MaxPool1D struct {
	Pool int

	argmax []int // flat input index of each output element
	lastIn []int // input shape
}

// NewMaxPool1D returns a max-pooling layer with the given window.
func NewMaxPool1D(pool int) *MaxPool1D {
	if pool <= 0 {
		panic(fmt.Sprintf("dnn: invalid pool size %d", pool))
	}
	return &MaxPool1D{Pool: pool}
}

func (l *MaxPool1D) Name() string { return fmt.Sprintf("maxpool(%d)", l.Pool) }

func (l *MaxPool1D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("dnn: %s got input %v", l.Name(), x.Shape()))
	}
	ch, w := x.Dim(0), x.Dim(1)
	outW := w / l.Pool
	if outW == 0 {
		panic(fmt.Sprintf("dnn: %s input width %d smaller than pool", l.Name(), w))
	}
	l.lastIn = []int{ch, w}
	out := tensor.New(ch, outW)
	if cap(l.argmax) < ch*outW {
		l.argmax = make([]int, ch*outW)
	}
	l.argmax = l.argmax[:ch*outW]
	xd, od := x.Data(), out.Data()
	for c := 0; c < ch; c++ {
		for t := 0; t < outW; t++ {
			base := c*w + t*l.Pool
			best, bi := xd[base], base
			for i := 1; i < l.Pool; i++ {
				if xd[base+i] > best {
					best, bi = xd[base+i], base+i
				}
			}
			od[c*outW+t] = best
			l.argmax[c*outW+t] = bi
		}
	}
	return out
}

func (l *MaxPool1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(l.lastIn...)
	dd, gd := dx.Data(), grad.Data()
	for i, src := range l.argmax {
		dd[src] += gd[i]
	}
	return dx
}

func (l *MaxPool1D) Params() []*tensor.Tensor { return nil }
func (l *MaxPool1D) Grads() []*tensor.Tensor  { return nil }
func (l *MaxPool1D) MACs() int                { return 0 }

func (l *MaxPool1D) OutShape(in []int) []int {
	return []int{in[0], in[1] / l.Pool}
}

// --- Flatten ------------------------------------------------------------------

// Flatten reshapes any input to a flat vector, remembering the input shape
// for the backward pass.
type Flatten struct {
	lastIn []int
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (l *Flatten) Name() string { return "flatten" }

func (l *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.lastIn = append(l.lastIn[:0], x.Shape()...)
	return x.Clone().Reshape(x.Len())
}

func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Clone().Reshape(l.lastIn...)
}

func (l *Flatten) Params() []*tensor.Tensor { return nil }
func (l *Flatten) Grads() []*tensor.Tensor  { return nil }
func (l *Flatten) MACs() int                { return 0 }

func (l *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

func nonZeroCount(t *tensor.Tensor) int {
	n := 0
	for _, v := range t.Data() {
		if v != 0 {
			n++
		}
	}
	return n
}

// --- Dropout ------------------------------------------------------------------

// Dropout randomly zeroes a fraction of activations during training
// (inverted dropout: survivors are scaled by 1/(1−rate) so inference needs
// no rescaling). Call SetTraining(false) — or leave the zero value — for
// inference, where the layer is an identity.
type Dropout struct {
	// Rate is the drop probability in [0, 1).
	Rate float64

	training bool
	rng      *rand.Rand
	mask     []bool
}

// NewDropout builds a dropout layer with the given rate and seed.
func NewDropout(rate float64, seed int64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("dnn: invalid dropout rate %v", rate))
	}
	return &Dropout{Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// SetTraining toggles training mode (dropout active) vs inference
// (identity).
func (l *Dropout) SetTraining(training bool) { l.training = training }

func (l *Dropout) Name() string { return fmt.Sprintf("dropout(%.2f)", l.Rate) }

func (l *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !l.training || l.Rate == 0 {
		return x.Clone()
	}
	out := x.Clone()
	d := out.Data()
	if cap(l.mask) < len(d) {
		l.mask = make([]bool, len(d))
	}
	l.mask = l.mask[:len(d)]
	scale := 1 / (1 - l.Rate)
	for i := range d {
		if l.rng.Float64() < l.Rate {
			l.mask[i] = true
			d[i] = 0
		} else {
			l.mask[i] = false
			d[i] *= scale
		}
	}
	return out
}

func (l *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	if !l.training || l.Rate == 0 {
		return out
	}
	d := out.Data()
	scale := 1 / (1 - l.Rate)
	for i := range d {
		if l.mask[i] {
			d[i] = 0
		} else {
			d[i] *= scale
		}
	}
	return out
}

func (l *Dropout) Params() []*tensor.Tensor { return nil }
func (l *Dropout) Grads() []*tensor.Tensor  { return nil }
func (l *Dropout) MACs() int                { return 0 }
func (l *Dropout) OutShape(in []int) []int  { return append([]int(nil), in...) }
