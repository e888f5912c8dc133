package dnn

import (
	"fmt"
	"math/rand"

	"origin/internal/tensor"
)

// Network is an ordered stack of layers ending in a linear (logit) output.
// Softmax is applied by Predict and by the loss, not stored as a layer, which
// keeps the backward pass numerically simple (softmax+cross-entropy fuses to
// p − onehot).
type Network struct {
	Layers []Layer

	// InShape is the expected input shape, recorded for validation and
	// serialization; typically (channels, window).
	InShape []int
	// Classes is the number of output classes.
	Classes int

	// arena holds reusable activation buffers for the batched inference
	// path (see batch.go). Lazily created on first ForwardBatch; never
	// shared between clones.
	arena *Arena
}

// NewNetwork wraps layers into a network for inputs of the given shape.
// It validates that the layer shapes chain correctly and that the final
// output is a vector whose length becomes Classes.
func NewNetwork(inShape []int, layers ...Layer) *Network {
	shape := append([]int(nil), inShape...)
	for _, l := range layers {
		shape = l.OutShape(shape)
	}
	if len(shape) != 1 {
		panic(fmt.Sprintf("dnn: network output shape %v is not a vector", shape))
	}
	return &Network{
		Layers:  layers,
		InShape: append([]int(nil), inShape...),
		Classes: shape[0],
	}
}

// Forward runs one sample through every layer and returns the logits.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := x
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Backward propagates dL/d(logits) through every layer in reverse.
func (n *Network) Backward(grad *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// Predict returns the argmax class and softmax probability vector for x.
func (n *Network) Predict(x *tensor.Tensor) (class int, probs *tensor.Tensor) {
	logits := n.Forward(x)
	probs = tensor.Softmax(logits)
	return probs.ArgMax(), probs
}

// SetTraining toggles training mode on every layer that distinguishes it
// (currently Dropout).
func (n *Network) SetTraining(training bool) {
	for _, l := range n.Layers {
		if d, ok := l.(*Dropout); ok {
			d.SetTraining(training)
		}
	}
}

// Params returns every learnable tensor in the network, layer order.
func (n *Network) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns every gradient tensor, matching Params.
func (n *Network) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range n.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.Grads() {
		g.Zero()
	}
}

// ParamCount returns the total number of learnable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Len()
	}
	return total
}

// NonZeroParamCount returns the number of non-zero learnable scalars,
// i.e. the effective size after magnitude pruning.
func (n *Network) NonZeroParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += nonZeroCount(p)
	}
	return total
}

// MACs returns the per-inference multiply-accumulate count, which is the
// basis of the energy model (see EnergyPerInference). Run at least one
// Forward first so convolution layers know their input width; NewNetwork's
// shape validation plus a warm-up inference in the builders guarantees this
// for all networks built by this repository.
func (n *Network) MACs() int {
	total := 0
	for _, l := range n.Layers {
		total += l.MACs()
	}
	return total
}

// Clone returns a deep copy of the network with fresh gradient buffers.
// Clones are independent: mutating one network's weights or running its
// forward/backward passes never affects another. Use one clone per
// goroutine/sensor.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = cloneLayer(l)
	}
	c := NewNetwork(n.InShape, layers...)
	return c
}

func cloneLayer(l Layer) Layer {
	switch v := l.(type) {
	case *Conv1D:
		c := &Conv1D{
			InC: v.InC, OutC: v.OutC, Kernel: v.Kernel, Stride: v.Stride,
			W: v.W.Clone(), B: v.B.Clone(),
			dW: tensor.New(v.dW.Shape()...), dB: tensor.New(v.dB.Shape()...),
			lastInW: v.lastInW,
		}
		return c
	case *Dense:
		return &Dense{
			In: v.In, Out: v.Out,
			W: v.W.Clone(), B: v.B.Clone(),
			dW: tensor.New(v.dW.Shape()...), dB: tensor.New(v.dB.Shape()...),
		}
	case *ReLU:
		return NewReLU()
	case *MaxPool1D:
		return NewMaxPool1D(v.Pool)
	case *Flatten:
		return NewFlatten()
	case *Dropout:
		c := NewDropout(v.Rate, 1)
		c.training = v.training
		return c
	default:
		panic(fmt.Sprintf("dnn: cannot clone unknown layer type %T", l))
	}
}

// HARConfig describes the small per-sensor CNN used throughout the
// reproduction: conv–relu–pool ×2 followed by a dense head, in the style of
// Ha & Choi (IJCNN 2016) scaled down for energy-scarce deployment.
type HARConfig struct {
	// Channels is the number of IMU channels (6: 3-axis accel + 3-axis gyro).
	Channels int
	// Window is the number of time samples per classification window.
	Window int
	// Classes is the number of activity classes.
	Classes int
	// Conv1Out, Conv2Out are the channel counts of the two conv stages.
	Conv1Out, Conv2Out int
	// Kernel is the conv kernel width (shared by both stages).
	Kernel int
	// Pool is the max-pool window (shared by both stages).
	Pool int
	// Hidden is the width of the dense hidden layer.
	Hidden int
}

// DefaultHARConfig returns the architecture used for the paper's per-sensor
// networks: small enough to run on an EH node, large enough to learn the
// synthetic IMU signatures.
func DefaultHARConfig(channels, window, classes int) HARConfig {
	return HARConfig{
		Channels: channels,
		Window:   window,
		Classes:  classes,
		Conv1Out: 8,
		Conv2Out: 12,
		Kernel:   5,
		Pool:     2,
		Hidden:   24,
	}
}

// NewShallowHARNetwork builds a single-conv-stage variant of the HAR CNN
// (conv–relu–pool–dense–relu–dense), the kind of structurally thinner
// network that aggressive energy-aware pruning leaves behind: at a matched
// MAC budget it is measurably less accurate than the two-stage architecture
// because it lacks the second level of temporal feature composition. Used
// as the Baseline-2 architecture. Conv2Out is ignored.
func NewShallowHARNetwork(rng *rand.Rand, cfg HARConfig) *Network {
	shape := []int{cfg.Channels, cfg.Window}
	conv1 := NewConv1D(rng, cfg.Channels, cfg.Conv1Out, cfg.Kernel, 1)
	shape = conv1.OutShape(shape)
	pool1 := NewMaxPool1D(cfg.Pool)
	shape = pool1.OutShape(shape)
	flatW := shape[0] * shape[1]

	n := NewNetwork([]int{cfg.Channels, cfg.Window},
		conv1, NewReLU(), pool1,
		NewFlatten(),
		NewDense(rng, flatW, cfg.Hidden), NewReLU(),
		NewDense(rng, cfg.Hidden, cfg.Classes),
	)
	n.Forward(tensor.New(cfg.Channels, cfg.Window))
	return n
}

// NewHARNetwork builds the per-sensor CNN from cfg using rng for weight
// initialisation, then runs one warm-up inference so MAC accounting is
// immediately meaningful.
func NewHARNetwork(rng *rand.Rand, cfg HARConfig) *Network {
	flatten := NewFlatten()
	// Compute the flattened width by chaining shapes.
	shape := []int{cfg.Channels, cfg.Window}
	conv1 := NewConv1D(rng, cfg.Channels, cfg.Conv1Out, cfg.Kernel, 1)
	shape = conv1.OutShape(shape)
	pool1 := NewMaxPool1D(cfg.Pool)
	shape = pool1.OutShape(shape)
	conv2 := NewConv1D(rng, cfg.Conv1Out, cfg.Conv2Out, cfg.Kernel, 1)
	shape = conv2.OutShape(shape)
	pool2 := NewMaxPool1D(cfg.Pool)
	shape = pool2.OutShape(shape)
	flatW := shape[0] * shape[1]

	n := NewNetwork([]int{cfg.Channels, cfg.Window},
		conv1, NewReLU(), pool1,
		conv2, NewReLU(), pool2,
		flatten,
		NewDense(rng, flatW, cfg.Hidden), NewReLU(),
		NewDense(rng, cfg.Hidden, cfg.Classes),
	)
	// Warm-up so Conv1D.MACs knows its input width.
	n.Forward(tensor.New(cfg.Channels, cfg.Window))
	return n
}
