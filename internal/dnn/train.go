package dnn

import (
	"fmt"
	"math"
	"math/rand"

	"origin/internal/tensor"
)

// Sample is one labelled training/evaluation example.
type Sample struct {
	// X is the input window, shaped (channels, width).
	X *tensor.Tensor
	// Label is the class index in [0, Classes).
	Label int
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the number of samples whose gradients are accumulated
	// before each parameter update.
	BatchSize int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient (0 disables it).
	Momentum float64
	// WeightDecay is the L2 regularisation coefficient (0 disables it).
	WeightDecay float64
	// LRDecay multiplies the learning rate after each epoch (1 disables it).
	LRDecay float64
	// LabelSmoothing blends the one-hot target with the uniform
	// distribution: target = (1−ε)·onehot + ε/classes. Smoothing calibrates
	// the softmax — ambiguous inputs produce visibly flatter outputs — which
	// is what makes the softmax-variance confidence measure informative for
	// the Origin ensemble (0 disables).
	LabelSmoothing float64
	// Seed shuffles the training order deterministically.
	Seed int64
	// Silent suppresses per-epoch logging via the Log callback.
	Silent bool
	// Log, if non-nil and not Silent, receives one line per epoch.
	Log func(string)
}

// DefaultTrainConfig returns the settings used to train the per-sensor nets.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:         30,
		BatchSize:      16,
		LearningRate:   0.02,
		Momentum:       0.9,
		WeightDecay:    1e-4,
		LRDecay:        0.97,
		LabelSmoothing: 0.1,
		Seed:           1,
		Silent:         true,
	}
}

// SmoothedCrossEntropyLoss returns the negative log-likelihood of a
// label-smoothed target q = (1−ε)·onehot + ε/classes under softmax(logits),
// along with dL/d(logits) = p − q. ε = 0 is plain cross-entropy.
func SmoothedCrossEntropyLoss(logits *tensor.Tensor, label int, epsilon float64) (loss float64, grad *tensor.Tensor) {
	p := tensor.Softmax(logits)
	classes := p.Len()
	tiny := 1e-12
	uniform := epsilon / float64(classes)
	loss = 0
	grad = p.Clone()
	for c := 0; c < classes; c++ {
		q := uniform
		if c == label {
			q += 1 - epsilon
		}
		if q > 0 {
			loss -= q * math.Log(p.At(c)+tiny)
		}
		grad.Set(grad.At(c)-q, c)
	}
	return loss, grad
}

// Train fits the network to samples with SGD + momentum, returning the final
// average training loss. Training is deterministic for a fixed cfg.Seed.
func Train(n *Network, samples []Sample, cfg TrainConfig) float64 {
	if len(samples) == 0 {
		return 0
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		panic(fmt.Sprintf("dnn: invalid TrainConfig epochs=%d batch=%d", cfg.Epochs, cfg.BatchSize))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}

	params := n.Params()
	grads := n.Grads()
	velocity := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		velocity[i] = tensor.New(p.Shape()...)
	}

	n.SetTraining(true)
	defer n.SetTraining(false)

	lr := cfg.LearningRate
	finalLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		n.ZeroGrads()
		inBatch := 0
		for _, idx := range order {
			s := samples[idx]
			logits := n.Forward(s.X)
			loss, grad := SmoothedCrossEntropyLoss(logits, s.Label, cfg.LabelSmoothing)
			epochLoss += loss
			n.Backward(grad)
			inBatch++
			if inBatch == cfg.BatchSize {
				applyUpdate(params, grads, velocity, lr, cfg, inBatch)
				n.ZeroGrads()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			applyUpdate(params, grads, velocity, lr, cfg, inBatch)
			n.ZeroGrads()
		}
		finalLoss = epochLoss / float64(len(samples))
		if !cfg.Silent && cfg.Log != nil {
			cfg.Log(fmt.Sprintf("epoch %3d  loss %.4f  lr %.5f", epoch+1, finalLoss, lr))
		}
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
	return finalLoss
}

func applyUpdate(params, grads, velocity []*tensor.Tensor, lr float64, cfg TrainConfig, batch int) {
	scale := 1.0 / float64(batch)
	for i, p := range params {
		g := grads[i]
		v := velocity[i]
		pd, gd, vd := p.Data(), g.Data(), v.Data()
		for j := range pd {
			gj := gd[j]*scale + cfg.WeightDecay*pd[j]
			vd[j] = cfg.Momentum*vd[j] - lr*gj
			pd[j] += vd[j]
		}
	}
}

// Evaluate returns top-1 accuracy of the network on samples (0..1).
func Evaluate(n *Network, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		c, _ := n.Predict(s.X)
		if c == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// EvaluatePerClass returns per-class accuracy (index = class) plus overall
// top-1 accuracy. Classes absent from samples report accuracy 0.
func EvaluatePerClass(n *Network, samples []Sample, classes int) (perClass []float64, overall float64) {
	correct := make([]int, classes)
	total := make([]int, classes)
	allCorrect := 0
	for _, s := range samples {
		c, _ := n.Predict(s.X)
		total[s.Label]++
		if c == s.Label {
			correct[s.Label]++
			allCorrect++
		}
	}
	perClass = make([]float64, classes)
	for i := range perClass {
		if total[i] > 0 {
			perClass[i] = float64(correct[i]) / float64(total[i])
		}
	}
	if len(samples) > 0 {
		overall = float64(allCorrect) / float64(len(samples))
	}
	return perClass, overall
}
