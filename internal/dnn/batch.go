package dnn

import (
	"fmt"

	"origin/internal/tensor"
)

// Batched inference. ForwardBatch runs a whole batch of windows through a
// network in one pass over the layers, with three properties the serving
// stack depends on:
//
//   - Per-window results are bit-identical to the single-window Forward
//     path. Each output element is accumulated in the same floating-point
//     order as its single-window counterpart (the blocked kernels in
//     internal/tensor only interleave independent accumulator chains), so
//     serving through it stays inside the fleet determinism contract — a
//     served classification equals its serial replay exactly.
//   - Activations come from a per-network Arena that is reset (not freed)
//     between calls: after warm-up the batch hot path performs no
//     per-element allocations regardless of batch size.
//   - ForwardBatch is inference-only. It caches nothing for a backward pass
//     and never touches the training-side layer state, so it cannot corrupt
//     an in-progress training run's gradients; Dropout must be in inference
//     mode (it panics otherwise rather than silently diverging from Forward).
//
// The single-window API remains available and unchanged; Forward is
// equivalent to ForwardBatch on a batch of one, which the batch tests pin.

// Arena is a reusable activation buffer pool for batched inference. A
// network keeps one arena and resets it at the start of every batch call, so
// steady-state inference reuses the same slabs instead of allocating.
// Tensors returned by Get are views into the arena and are valid only until
// the next Reset.
//
// An Arena is not safe for concurrent use; it inherits the network's
// clone-per-goroutine contract.
type Arena struct {
	views []*tensor.Tensor
	next  int
}

// Reset makes every slab reusable. Existing views become invalid.
func (a *Arena) Reset() { a.next = 0 }

// Get returns an uninitialised tensor of the given shape backed by the
// arena. Contents are arbitrary; callers must fully overwrite them. When the
// shape at this position matches the previous pass (the steady state of a
// fixed batch size), the cached tensor header is returned and nothing is
// allocated at all.
func (a *Arena) Get(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("dnn: negative dimension %d in arena shape %v", d, shape))
		}
		n *= d
	}
	if a.next < len(a.views) {
		v := a.views[a.next]
		if sameShape(v.Shape(), shape) {
			a.next++
			return v
		}
		s := v.Data()
		if cap(s) < n {
			s = make([]float64, n)
		}
		v = tensor.FromSlice(s[:n], shape...)
		a.views[a.next] = v
		a.next++
		return v
	}
	v := tensor.FromSlice(make([]float64, n), shape...)
	a.views = append(a.views, v)
	a.next++
	return v
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BatchLayer is implemented by layers that support batched inference over a
// leading batch dimension. x holds the batch; activations are taken from
// arena and are valid until its next Reset.
type BatchLayer interface {
	ForwardBatch(x *tensor.Tensor, arena *Arena) *tensor.Tensor
}

// ForwardBatch runs a (batch, InShape...) tensor through the convolution:
// x is (B, InC, W), the result (B, OutC, outW). The batch lowers to one
// (B·outW, InC·K) im2col matrix and a single blocked GEMM against the
// weights, amortising kernel setup across every window in the batch.
func (l *Conv1D) ForwardBatch(x *tensor.Tensor, arena *Arena) *tensor.Tensor {
	if x.Dims() != 3 || x.Dim(1) != l.InC {
		panic(fmt.Sprintf("dnn: %s ForwardBatch got input %v", l.Name(), x.Shape()))
	}
	batch, w := x.Dim(0), x.Dim(2)
	if w < l.Kernel {
		panic(fmt.Sprintf("dnn: %s input width %d smaller than kernel", l.Name(), w))
	}
	outW := (w-l.Kernel)/l.Stride + 1
	ck := l.InC * l.Kernel

	// Batched im2col: row (bi·outW + t) holds window bi's receptive field at
	// output position t, channel-major — exactly Im2Col1D's row layout.
	cols := arena.Get(batch, outW, ck)
	xd, cd := x.Data(), cols.Data()
	for bi := 0; bi < batch; bi++ {
		xoff := bi * l.InC * w
		roff := bi * outW * ck
		for t := 0; t < outW; t++ {
			base := t * l.Stride
			row := cd[roff+t*ck : roff+(t+1)*ck]
			for c := 0; c < l.InC; c++ {
				src := xd[xoff+c*w+base : xoff+c*w+base+l.Kernel]
				copy(row[c*l.Kernel:(c+1)*l.Kernel], src)
			}
		}
	}

	// tmp[bi][t][o] = W[o] · cols[bi][t] — same dot, in the same order, as
	// the single-window MatMulT(W, cols); one blocked GEMM for the batch.
	tmp := arena.Get(batch, outW, l.OutC)
	tensor.MatMulTBatchInto(tmp, cols, l.W)

	// Transpose each sample to the (OutC, outW) single-window layout and add
	// the bias, matching Forward's separate bias pass bit for bit.
	out := arena.Get(batch, l.OutC, outW)
	td, od, bd := tmp.Data(), out.Data(), l.B.Data()
	for bi := 0; bi < batch; bi++ {
		toff := bi * outW * l.OutC
		ooff := bi * l.OutC * outW
		for t := 0; t < outW; t++ {
			trow := td[toff+t*l.OutC : toff+(t+1)*l.OutC]
			for o, v := range trow {
				od[ooff+o*outW+t] = v + bd[o]
			}
		}
	}
	return out
}

// forwardBatchFusedReluPool runs a stride-1, kernel-5 convolution and the
// ReLU and pool-2 MaxPool1D after it (every served HAR stage) as one pass.
// It computes the convolution directly from the input (no im2col
// materialisation) with the same 4×2 register tiling as the blocked GEMM —
// four output positions × two output channels, eight independent
// accumulators, each summing taps in (channel, tap) ascending order, i.e.
// exactly the im2col dot-product order — and applies bias, ReLU and pooling
// as each L1-hot tile completes. Per element this is the arithmetic of the
// three separate layers in the same order (relu is monotone and applied
// before the pool comparison exactly as the unfused path does), so results
// stay bit-identical; only two full memory passes over the batch disappear.
// Network.ForwardBatch selects it only for that geometry.
func (l *Conv1D) forwardBatchFusedReluPool(x *tensor.Tensor, arena *Arena) *tensor.Tensor {
	if x.Dims() != 3 || x.Dim(1) != l.InC {
		panic(fmt.Sprintf("dnn: %s ForwardBatch got input %v", l.Name(), x.Shape()))
	}
	batch, w := x.Dim(0), x.Dim(2)
	if w < 5 {
		panic(fmt.Sprintf("dnn: %s input width %d smaller than kernel", l.Name(), w))
	}
	pooledW := (w - 4) / 2
	if pooledW == 0 {
		panic(fmt.Sprintf("dnn: fused pool input width %d smaller than pool", w-4))
	}
	out := arena.Get(batch, l.OutC, pooledW)
	xd, od, wd, bd := x.Data(), out.Data(), l.W.Data(), l.B.Data()
	ck := l.InC * 5
	// A conv column past 2*pooledW is discarded by pooling — skip it.
	usedW := 2 * pooledW

	for bi := 0; bi < batch; bi++ {
		xoff := bi * l.InC * w
		ooff := bi * l.OutC * pooledW
		o := 0
		for ; o+2 <= l.OutC; o += 2 {
			w0 := wd[(o+0)*ck : (o+1)*ck]
			w1 := wd[(o+1)*ck : (o+2)*ck]
			bv0, bv1 := bd[o], bd[o+1]
			od0 := od[ooff+(o+0)*pooledW : ooff+(o+1)*pooledW]
			od1 := od[ooff+(o+1)*pooledW : ooff+(o+2)*pooledW]
			t := 0
			for ; t+4 <= usedW; t += 4 {
				var s00, s01 float64
				var s10, s11 float64
				var s20, s21 float64
				var s30, s31 float64
				base := xoff + t
				// Taps 0..4 within a channel, channels ascending; constant
				// indices let the compiler drop every bounds check.
				for c := 0; c < l.InC; c++ {
					cb := base + c*w
					xc := xd[cb : cb+8 : cb+8]
					cw := c * 5
					wr0 := w0[cw : cw+5 : cw+5]
					wr1 := w1[cw : cw+5 : cw+5]

					wv0, wv1 := wr0[0], wr1[0]
					x0, x1, x2, x3 := xc[0], xc[1], xc[2], xc[3]
					s00 += x0 * wv0
					s01 += x0 * wv1
					s10 += x1 * wv0
					s11 += x1 * wv1
					s20 += x2 * wv0
					s21 += x2 * wv1
					s30 += x3 * wv0
					s31 += x3 * wv1

					wv0, wv1 = wr0[1], wr1[1]
					x0, x1, x2, x3 = xc[1], xc[2], xc[3], xc[4]
					s00 += x0 * wv0
					s01 += x0 * wv1
					s10 += x1 * wv0
					s11 += x1 * wv1
					s20 += x2 * wv0
					s21 += x2 * wv1
					s30 += x3 * wv0
					s31 += x3 * wv1

					wv0, wv1 = wr0[2], wr1[2]
					x0, x1, x2, x3 = xc[2], xc[3], xc[4], xc[5]
					s00 += x0 * wv0
					s01 += x0 * wv1
					s10 += x1 * wv0
					s11 += x1 * wv1
					s20 += x2 * wv0
					s21 += x2 * wv1
					s30 += x3 * wv0
					s31 += x3 * wv1

					wv0, wv1 = wr0[3], wr1[3]
					x0, x1, x2, x3 = xc[3], xc[4], xc[5], xc[6]
					s00 += x0 * wv0
					s01 += x0 * wv1
					s10 += x1 * wv0
					s11 += x1 * wv1
					s20 += x2 * wv0
					s21 += x2 * wv1
					s30 += x3 * wv0
					s31 += x3 * wv1

					wv0, wv1 = wr0[4], wr1[4]
					x0, x1, x2, x3 = xc[4], xc[5], xc[6], xc[7]
					s00 += x0 * wv0
					s01 += x0 * wv1
					s10 += x1 * wv0
					s11 += x1 * wv1
					s20 += x2 * wv0
					s21 += x2 * wv1
					s30 += x3 * wv0
					s31 += x3 * wv1
				}
				// Pool the 4-wide tile straight into the output: two
				// adjacent columns per pooled position.
				od0[t/2], od0[t/2+1] = reluPool2(s00, s10, bv0), reluPool2(s20, s30, bv0)
				od1[t/2], od1[t/2+1] = reluPool2(s01, s11, bv1), reluPool2(s21, s31, bv1)
			}
			// usedW is even, so at most one 2-wide pooled pair is left.
			if t < usedW {
				s0, s2 := conv5Pair(xd, w0, xoff+t, w)
				s1, s3 := conv5Pair(xd, w1, xoff+t, w)
				od0[t/2] = reluPool2(s0, s2, bv0)
				od1[t/2] = reluPool2(s1, s3, bv1)
			}
		}
		if o < l.OutC {
			// Odd OutC: the last channel runs one pooled pair at a time.
			wr, bv := wd[o*ck:(o+1)*ck], bd[o]
			dst := od[ooff+o*pooledW : ooff+(o+1)*pooledW]
			for pt := range dst {
				s0, s1 := conv5Pair(xd, wr, xoff+2*pt, w)
				dst[pt] = reluPool2(s0, s1, bv)
			}
		}
	}
	return out
}

// conv5Pair returns one output channel's stride-1 kernel-5 conv sums at
// positions base and base+1 of a (channels, w) input laid out from base's
// sample; wr holds the channel's (channels·5) weights. Taps are summed in
// (channel, tap) ascending order, the order of the 4×2 tile.
func conv5Pair(xd, wr []float64, base, w int) (s0, s1 float64) {
	for c := 0; c < len(wr)/5; c++ {
		cb := base + c*w
		xc := xd[cb : cb+6 : cb+6]
		for kk, wv := range wr[c*5 : c*5+5 : c*5+5] {
			s0 += xc[kk] * wv
			s1 += xc[kk+1] * wv
		}
	}
	return s0, s1
}

// relu matches the single-window layer exactly: everything not strictly
// positive (including −0) becomes +0.
func relu(v float64) float64 {
	if !(v > 0) {
		return 0
	}
	return v
}

// reluPool2 is one pool-2 output: the larger of relu(a+bias) and
// relu(b+bias), compared with MaxPool1D's `>` in the same order.
func reluPool2(a, b, bias float64) float64 {
	v := relu(a + bias)
	if u := relu(b + bias); u > v {
		v = u
	}
	return v
}

// ForwardBatch applies the dense layer to a (B, In) batch, producing
// (B, Out) via one blocked GEMM against the stored (Out, In) weights.
func (l *Dense) ForwardBatch(x *tensor.Tensor, arena *Arena) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("dnn: %s ForwardBatch got input %v", l.Name(), x.Shape()))
	}
	batch := x.Dim(0)
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("dnn: %s ForwardBatch got rows of length %d", l.Name(), x.Dim(1)))
	}
	out := arena.Get(batch, l.Out)
	tensor.MatMulTBatchInto(out.Reshape(batch, 1, l.Out), x.Reshape(batch, 1, l.In), l.W)
	// Bias in a second pass, matching Forward's MatVec-then-Add order.
	od, bd := out.Data(), l.B.Data()
	for bi := 0; bi < batch; bi++ {
		row := od[bi*l.Out : (bi+1)*l.Out]
		for o := range row {
			row[o] += bd[o]
		}
	}
	return out
}

// ForwardBatch applies ReLU elementwise, in place: batch activations are
// arena-owned scratch that no other layer reads again, so rewriting x saves
// a full memory pass over the batch. (This is why ForwardBatch inputs are
// documented as consumed — see Network.ForwardBatch.)
func (l *ReLU) ForwardBatch(x *tensor.Tensor, arena *Arena) *tensor.Tensor {
	d := x.Data()
	for i, v := range d {
		// Match Forward exactly: everything not strictly positive becomes
		// +0, including −0 (v < 0 would let −0 through with the wrong sign
		// bit, breaking bit-equality with the single-window path).
		if !(v > 0) {
			d[i] = 0
		}
	}
	return x
}

// ForwardBatch max-pools each sample of a (B, ch, w) batch independently.
func (l *MaxPool1D) ForwardBatch(x *tensor.Tensor, arena *Arena) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("dnn: %s ForwardBatch got input %v", l.Name(), x.Shape()))
	}
	batch, ch, w := x.Dim(0), x.Dim(1), x.Dim(2)
	outW := w / l.Pool
	if outW == 0 {
		panic(fmt.Sprintf("dnn: %s input width %d smaller than pool", l.Name(), w))
	}
	out := arena.Get(batch, ch, outW)
	xd, od := x.Data(), out.Data()
	rows := batch * ch
	if l.Pool == 2 {
		// Pairwise-max fast path for the pool size every HAR config uses.
		for r := 0; r < rows; r++ {
			src := xd[r*w : r*w+2*outW]
			dst := od[r*outW : (r+1)*outW]
			for t := range dst {
				a, b := src[2*t], src[2*t+1]
				if b > a {
					a = b
				}
				dst[t] = a
			}
		}
		return out
	}
	for r := 0; r < rows; r++ {
		src := xd[r*w : (r+1)*w]
		dst := od[r*outW : (r+1)*outW]
		for t := range dst {
			base := t * l.Pool
			best := src[base]
			for i := 1; i < l.Pool; i++ {
				if src[base+i] > best {
					best = src[base+i]
				}
			}
			dst[t] = best
		}
	}
	return out
}

// ForwardBatch flattens every trailing dimension, keeping the batch leading:
// (B, d1, d2, ...) → (B, d1·d2·...). It is a view, not a copy.
func (l *Flatten) ForwardBatch(x *tensor.Tensor, arena *Arena) *tensor.Tensor {
	batch := x.Dim(0)
	if batch == 0 {
		return x.Reshape(0, 0)
	}
	return x.Reshape(batch, x.Len()/batch)
}

// ForwardBatch is the identity: batched inference never drops activations.
// It panics in training mode, where silently skipping dropout would diverge
// from Forward.
func (l *Dropout) ForwardBatch(x *tensor.Tensor, arena *Arena) *tensor.Tensor {
	if l.training && l.Rate > 0 {
		panic("dnn: Dropout.ForwardBatch during training (batched path is inference-only)")
	}
	return x
}

// ForwardBatch runs a batch through every layer and returns the logits as a
// (B, Classes) tensor. x must be (B, InShape...) with B ≥ 1 and is consumed:
// layers may reuse it as scratch, so callers must not rely on its contents
// afterwards. The result is a view into the network's arena: it is valid
// until the network's next ForwardBatch/PredictBatch call, and callers must
// copy anything they keep.
//
// Like Forward, ForwardBatch is not safe for concurrent use on one network;
// clone per goroutine.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Dims() != len(n.InShape)+1 || x.Dim(0) < 1 {
		panic(fmt.Sprintf("dnn: ForwardBatch input %v does not add a batch dimension to %v", x.Shape(), n.InShape))
	}
	for i, d := range n.InShape {
		if x.Dim(i+1) != d {
			panic(fmt.Sprintf("dnn: ForwardBatch input %v does not match input shape %v", x.Shape(), n.InShape))
		}
	}
	if n.arena == nil {
		n.arena = &Arena{}
	}
	n.arena.Reset()
	batch := x.Dim(0)
	out := x
	for i := 0; i < len(n.Layers); i++ {
		// Peephole: a stride-1 kernel-5 conv, ReLU, pool-2 stage (every
		// served HAR stage) runs as one fused pass; any other geometry takes
		// the bit-identical layer-by-layer path below.
		if conv, ok := n.Layers[i].(*Conv1D); ok && conv.Stride == 1 && conv.Kernel == 5 && i+2 < len(n.Layers) {
			_, isRelu := n.Layers[i+1].(*ReLU)
			pool, isPool := n.Layers[i+2].(*MaxPool1D)
			if isRelu && isPool && pool.Pool == 2 {
				out = conv.forwardBatchFusedReluPool(out, n.arena)
				i += 2
				continue
			}
		}
		bl, ok := n.Layers[i].(BatchLayer)
		if !ok {
			panic(fmt.Sprintf("dnn: layer %s does not implement batched inference", n.Layers[i].Name()))
		}
		out = bl.ForwardBatch(out, n.arena)
	}
	if out.Dims() == 1 {
		// A head that emits one logit vector per sample in flat form.
		out = out.Reshape(batch, out.Len()/batch)
	}
	return out
}

// PredictBatch returns the argmax class of every sample and the softmax
// probability matrix (B, Classes). Per-sample values are bit-identical to
// Predict on the same window. The probability tensor lives in the network's
// arena — valid until the next batch call.
func (n *Network) PredictBatch(x *tensor.Tensor) (classes []int, probs *tensor.Tensor) {
	logits := n.ForwardBatch(x)
	batch := logits.Dim(0)
	classes = make([]int, batch)
	for bi := 0; bi < batch; bi++ {
		row := logits.Row(bi)
		tensor.SoftmaxInPlace(row)
		classes[bi] = row.ArgMax()
	}
	return classes, logits
}
