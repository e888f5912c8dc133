package tensor

import "fmt"

// This file holds the register-blocked kernels behind the batched inference
// hot path. All of them preserve the naive kernels' per-element accumulation
// order (k ascending into an independent accumulator per output element), so
// their results are bit-identical to the reference loops — blocking only
// interleaves independent accumulator chains to expose instruction-level
// parallelism and reuse loaded operands. That bit-exactness is what lets the
// serving stack swap batched kernels in under the fleet determinism contract
// (a served classification must equal its serial replay exactly, not within
// a tolerance).

// MatMulTBatchInto computes dst[i] = A[i] × Bᵀ for every slice of a batched
// left operand: a is (batch, m, k), b a shared (n, k) operand read as its
// transpose, dst is (batch, m, n). Because every slice shares b, the whole
// batch is one (batch·m, k) × (k, n) product, which the blocked kernel
// executes without allocating; callers preallocate dst (e.g. from an
// activation arena) so the hot path performs no per-call allocations. This
// is the natural layout for batched dense and im2col-lowered convolution
// layers, whose weights are stored (out, in).
func MatMulTBatchInto(dst, a, b *Tensor) {
	if a.Dims() != 3 || b.Dims() != 2 || dst.Dims() != 3 {
		panic(fmt.Sprintf("tensor: MatMulTBatchInto requires (3-D, 2-D, 3-D), got dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	batch, m, k := a.shape[0], a.shape[1], a.shape[2]
	if b.shape[1] != k || dst.shape[0] != batch || dst.shape[1] != m || dst.shape[2] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTBatchInto shape mismatch dst=%v a=%v b=%vᵀ", dst.shape, a.shape, b.shape))
	}
	matMulTInto(dst.data, a.data, b.data, batch*m, k, b.shape[0])
}

// matMulTInto is the register-blocked dot-product kernel: c (m×n) where
// c[i][j] = Σ_p a[i][p]·b[j][p]. The 4×2 micro-kernel keeps eight
// independent accumulators live (plus six operand loads — within amd64's
// sixteen FP registers, so nothing spills), breaking the single-accumulator
// dependency chain that makes a lone dot product FP-add-latency bound, and
// reusing each loaded a value twice and each b value four times. Every
// accumulator still sums p in ascending order, so each output element is
// bit-identical to a naive dot.
func matMulTInto(c, a, b []float64, m, k, n int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			var s00, s01 float64
			var s10, s11 float64
			var s20, s21 float64
			var s30, s31 float64
			p := 0
			// k unrolled by 2: each accumulator is still updated once per p
			// in ascending order (the two updates are sequential, not
			// combined), so results stay bit-identical to the rolled loop.
			for ; p+2 <= k; p += 2 {
				bv0, bv1 := b0[p], b1[p]
				av0, av1 := a0[p], a1[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
				av2, av3 := a2[p], a3[p]
				s20 += av2 * bv0
				s21 += av2 * bv1
				s30 += av3 * bv0
				s31 += av3 * bv1
				bw0, bw1 := b0[p+1], b1[p+1]
				aw0, aw1 := a0[p+1], a1[p+1]
				s00 += aw0 * bw0
				s01 += aw0 * bw1
				s10 += aw1 * bw0
				s11 += aw1 * bw1
				aw2, aw3 := a2[p+1], a3[p+1]
				s20 += aw2 * bw0
				s21 += aw2 * bw1
				s30 += aw3 * bw0
				s31 += aw3 * bw1
			}
			for ; p < k; p++ {
				bv0, bv1 := b0[p], b1[p]
				av0, av1 := a0[p], a1[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
				av2, av3 := a2[p], a3[p]
				s20 += av2 * bv0
				s21 += av2 * bv1
				s30 += av3 * bv0
				s31 += av3 * bv1
			}
			c[(i+0)*n+j], c[(i+0)*n+j+1] = s00, s01
			c[(i+1)*n+j], c[(i+1)*n+j+1] = s10, s11
			c[(i+2)*n+j], c[(i+2)*n+j+1] = s20, s21
			c[(i+3)*n+j], c[(i+3)*n+j+1] = s30, s31
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s0, s1, s2, s3 float64
			for p, bv := range brow {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			c[(i+0)*n+j] = s0
			c[(i+1)*n+j] = s1
			c[(i+2)*n+j] = s2
			c[(i+3)*n+j] = s3
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : i*k+k]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			c[i*n+j], c[i*n+j+1], c[i*n+j+2], c[i*n+j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			s := 0.0
			for p, bv := range brow {
				s += arow[p] * bv
			}
			c[i*n+j] = s
		}
	}
}

// matMulDense is the register-blocked ikj kernel for dense left operands:
// c = A × B with no zero-skip branch. Four rows of A advance together, so
// each streamed load of a B row is reused four times. The p (middle) loop
// still ascends, so every c element accumulates its terms in the same order
// as the naive ikj loop.
func matMulDense(c, a, b []float64, m, k, n int) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		c2 := c[(i+2)*n : (i+2)*n+n]
		c3 := c[(i+3)*n : (i+3)*n+n]
		for p := 0; p < k; p++ {
			av0 := a[(i+0)*k+p]
			av1 := a[(i+1)*k+p]
			av2 := a[(i+2)*k+p]
			av3 := a[(i+3)*k+p]
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				c0[j] += av0 * bv
				c1[j] += av1 * bv
				c2[j] += av2 * bv
				c3[j] += av3 * bv
			}
		}
	}
	for ; i < m; i++ {
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			brow := b[p*n : p*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// matMulSparse is the zero-skipping ikj kernel: profitable when the left
// operand has enough zero entries (magnitude-pruned weights) that skipped
// rows of B outweigh the branch in the middle loop.
func matMulSparse(c, a, b []float64, m, k, n int) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// sparseGateThreshold is the zero fraction of the left operand above which
// matMulInto selects the zero-skipping kernel. Below it the skip branch is
// dead weight: on dense (post-finetune) weights it almost never fires yet
// costs a compare + likely misprediction per innermost-row dispatch, and it
// blocks the 4-row register blocking. The O(m·k) scan that decides is
// negligible next to the O(m·k·n) multiply it steers.
const sparseGateThreshold = 0.25

// zeroFraction returns the fraction of zero elements in s (0 for empty).
func zeroFraction(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	z := 0
	for _, v := range s {
		if v == 0 {
			z++
		}
	}
	return float64(z) / float64(len(s))
}
