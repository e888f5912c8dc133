package tensor

import "fmt"

// MatMul computes C = A × B for 2-D tensors.
// A is (m×k), B is (k×n) and the result is (m×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D tensors, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	c := New(m, n)
	matMulInto(c.data, a.data, b.data, m, k, n)
	return c
}

// matMulInto is the flat-slice kernel dispatcher: ikj loop order so the
// innermost loop streams through contiguous rows of b and c. The historical
// zero-skip branch (worth it for magnitude-pruned weights, dead weight on
// dense operands) is gated behind a cheap sparsity scan of a; both kernels
// accumulate each c element in identical order, so the dispatch never
// changes the result — only how fast it arrives. A skipped zero term adds an
// exact ±0, and since an accumulator that starts at +0 can never become −0
// under round-to-nearest, including or excluding those terms is bit-neutral.
func matMulInto(c, a, b []float64, m, k, n int) {
	if zeroFraction(a[:m*k]) >= sparseGateThreshold {
		matMulSparse(c, a, b, m, k, n)
		return
	}
	matMulDense(c, a, b, m, k, n)
}

// MatMulT computes C = A × Bᵀ where A is (m×k) and B is (n×k); C is (m×n).
// This is the natural layout for the backward pass of a dense layer.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulT requires 2-D tensors, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch %v × %vᵀ", a.shape, b.shape))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		crow := c.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
	return c
}

// MatTMul computes C = Aᵀ × B where A is (k×m) and B is (k×n); C is (m×n).
// This is the natural layout for weight gradients.
func MatTMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatTMul requires 2-D tensors, got %v and %v", a.shape, b.shape))
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatTMul inner dimension mismatch %vᵀ × %v", a.shape, b.shape))
	}
	c := New(m, n)
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := c.data[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// MatVec computes y = A × x for a 2-D A (m×k) and 1-D x (k); y is (m).
func MatVec(a, x *Tensor) *Tensor {
	if a.Dims() != 2 || x.Dims() != 1 {
		panic(fmt.Sprintf("tensor: MatVec requires (2-D, 1-D), got %v and %v", a.shape, x.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if x.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch %v × %v", a.shape, x.shape))
	}
	y := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*k : (i+1)*k]
		s := 0.0
		for p, av := range row {
			s += av * x.data[p]
		}
		y.data[i] = s
	}
	return y
}

// Im2Col1D lowers a multi-channel 1-D signal to a matrix so that a
// convolution becomes a single matrix multiply.
//
// x has shape (channels, width). With kernel size k and stride s the output
// has shape (outW, channels*k) where outW = (width-k)/s + 1: row t holds the
// receptive field of output position t, channel-major.
func Im2Col1D(x *Tensor, kernel, stride int) *Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Im2Col1D requires a 2-D (channels, width) tensor, got %v", x.shape))
	}
	if kernel <= 0 || stride <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col1D invalid kernel=%d stride=%d", kernel, stride))
	}
	ch, w := x.shape[0], x.shape[1]
	if w < kernel {
		panic(fmt.Sprintf("tensor: Im2Col1D width %d smaller than kernel %d", w, kernel))
	}
	outW := (w-kernel)/stride + 1
	out := New(outW, ch*kernel)
	for t := 0; t < outW; t++ {
		base := t * stride
		row := out.data[t*ch*kernel : (t+1)*ch*kernel]
		for c := 0; c < ch; c++ {
			src := x.data[c*w+base : c*w+base+kernel]
			copy(row[c*kernel:(c+1)*kernel], src)
		}
	}
	return out
}

// Col2Im1D is the adjoint of Im2Col1D: it scatters gradient columns back
// into the (channels, width) layout, accumulating overlaps.
func Col2Im1D(cols *Tensor, channels, width, kernel, stride int) *Tensor {
	outW := (width-kernel)/stride + 1
	if cols.Dims() != 2 || cols.shape[0] != outW || cols.shape[1] != channels*kernel {
		panic(fmt.Sprintf("tensor: Col2Im1D shape %v incompatible with (ch=%d,w=%d,k=%d,s=%d)",
			cols.shape, channels, width, kernel, stride))
	}
	x := New(channels, width)
	for t := 0; t < outW; t++ {
		base := t * stride
		row := cols.data[t*channels*kernel : (t+1)*channels*kernel]
		for c := 0; c < channels; c++ {
			dst := x.data[c*width+base : c*width+base+kernel]
			src := row[c*kernel : (c+1)*kernel]
			for i, v := range src {
				dst[i] += v
			}
		}
	}
	return x
}
