package dnn

import (
	"fmt"
	"math"
	"sort"

	"origin/internal/tensor"
)

// PruneResult summarises one energy-aware pruning run.
type PruneResult struct {
	// MACsBefore and MACsAfter are the per-inference MAC counts around the run.
	MACsBefore, MACsAfter int
	// Sparsity is the fraction of weights zeroed (0..1).
	Sparsity float64
	// Threshold is the magnitude below which weights were zeroed.
	Threshold float64
}

// PruneToBudget performs magnitude-based, energy-aware pruning in the style
// of Yang et al. (CVPR 2017): it zeroes the smallest-magnitude weights until
// the network's per-inference MAC count (a direct proxy for inference energy
// in the intermittent-compute model) drops to at most budgetMACs. Biases are
// never pruned. This is the Baseline-2 construction: the pruned network is
// cheaper but somewhat less accurate, and is the network Origin deploys.
//
// Callers usually fine-tune afterwards (see FineTune) to recover accuracy.
func PruneToBudget(n *Network, budgetMACs int) PruneResult {
	before := n.MACs()
	res := PruneResult{MACsBefore: before, MACsAfter: before}
	if budgetMACs <= 0 {
		panic(fmt.Sprintf("dnn: invalid MAC budget %d", budgetMACs))
	}
	if before <= budgetMACs {
		return res
	}

	// Collect all weight magnitudes (weights only: even-indexed params are
	// weights, odd are biases, per layer.Params() convention — detect by rank
	// instead to stay robust: biases are rank-1 in both layer types, weights
	// rank-2).
	var mags []float64
	for _, p := range weightTensors(n) {
		for _, v := range p.Data() {
			if v != 0 {
				mags = append(mags, math.Abs(v))
			}
		}
	}
	sort.Float64s(mags)

	// Binary search over the sorted magnitudes for the smallest threshold
	// that satisfies the budget. MACs is monotone non-increasing in the
	// threshold, so binary search is sound.
	lo, hi := 0, len(mags)-1
	bestThresh := -1.0
	for lo <= hi {
		mid := (lo + hi) / 2
		thresh := mags[mid]
		if macsWithThreshold(n, thresh) <= budgetMACs {
			bestThresh = thresh
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if bestThresh < 0 {
		// Even pruning everything but the largest weight does not fit;
		// prune to the largest magnitude (keeps only maximal weights).
		bestThresh = mags[len(mags)-1]
	}
	applyThreshold(n, bestThresh)

	res.MACsAfter = n.MACs()
	res.Threshold = bestThresh
	total, zeroed := 0, 0
	for _, p := range weightTensors(n) {
		for _, v := range p.Data() {
			total++
			if v == 0 {
				zeroed++
			}
		}
	}
	if total > 0 {
		res.Sparsity = float64(zeroed) / float64(total)
	}
	return res
}

func weightTensors(n *Network) []*tensor.Tensor {
	var ws []*tensor.Tensor
	for _, p := range n.Params() {
		if p.Dims() == 2 {
			ws = append(ws, p)
		}
	}
	return ws
}

// macsWithThreshold computes the MAC count the network would have if every
// weight with |w| <= thresh were zeroed, without mutating the network.
func macsWithThreshold(n *Network, thresh float64) int {
	total := 0
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv1D:
			nz := 0
			for _, w := range v.W.Data() {
				if w != 0 && math.Abs(w) > thresh {
					nz++
				}
			}
			outW := 1
			if v.lastInW >= v.Kernel {
				outW = (v.lastInW-v.Kernel)/v.Stride + 1
			}
			total += nz * outW
		case *Dense:
			for _, w := range v.W.Data() {
				if w != 0 && math.Abs(w) > thresh {
					total++
				}
			}
		}
	}
	return total
}

func applyThreshold(n *Network, thresh float64) {
	for _, p := range weightTensors(n) {
		d := p.Data()
		for i, v := range d {
			if math.Abs(v) <= thresh {
				d[i] = 0
			}
		}
	}
}

// FineTune retrains a pruned network for a few epochs while keeping pruned
// weights at exactly zero (the sparsity mask is re-applied after every
// update), recovering part of the accuracy lost to pruning.
func FineTune(n *Network, samples []Sample, cfg TrainConfig) float64 {
	masks := make([][]bool, 0)
	for _, p := range weightTensors(n) {
		mask := make([]bool, p.Len())
		for i, v := range p.Data() {
			mask[i] = v == 0
		}
		masks = append(masks, mask)
	}
	loss := trainMasked(n, samples, cfg, masks)
	return loss
}

func trainMasked(n *Network, samples []Sample, cfg TrainConfig, masks [][]bool) float64 {
	// Wrap Train's update loop: simplest correct approach is to run Train
	// epoch by epoch and re-zero masked weights after each epoch. Momentum
	// buffers restart each call, which is acceptable for the short
	// fine-tuning schedules used here.
	loss := 0.0
	per := cfg
	per.Epochs = 1
	for e := 0; e < cfg.Epochs; e++ {
		per.Seed = cfg.Seed + int64(e)
		loss = Train(n, samples, per)
		ws := weightTensors(n)
		for wi, p := range ws {
			d := p.Data()
			for i, masked := range masks[wi] {
				if masked {
					d[i] = 0
				}
			}
		}
		per.LearningRate *= cfg.LRDecay
	}
	return loss
}

// EnergyModel converts MAC counts to energy. Values are abstract but sized
// like a sub-mW non-volatile inference accelerator (ReSiRCA-class): the exact
// scale cancels out because harvest-trace power is calibrated in the same
// units (see internal/experiments).
type EnergyModel struct {
	// EnergyPerMAC is the energy cost of one multiply-accumulate, in joules.
	EnergyPerMAC float64
	// BaselineOverhead is fixed per-inference energy (sampling the IMU
	// window, memory traffic, control), in joules.
	BaselineOverhead float64
}

// DefaultEnergyModel returns the model used throughout the reproduction.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		EnergyPerMAC:     2e-9, // 2 nJ per MAC
		BaselineOverhead: 5e-6, // matches the 2500 MAC-equivalent per-inference overhead
	}
}

// InferenceEnergy returns the total energy of one inference of n under m.
func (m EnergyModel) InferenceEnergy(n *Network) float64 {
	return float64(n.MACs())*m.EnergyPerMAC + m.BaselineOverhead
}
