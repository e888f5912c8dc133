package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refMatMulT is the unblocked reference: c[i][j] = Σ_p a[i][p]·b[j][p],
// accumulated in ascending p order (the order the blocked kernel must match
// bit for bit).
func refMatMulT(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(j, p)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

// refMatMul is the unblocked, no-skip reference for C = A × B.
func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandNormal(rng, 0, 1)
	return t
}

// exactEqual reports bitwise equality (the determinism contract is exact,
// not within a tolerance).
func exactEqual(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float64bits(ad[i]) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// prop: the register-blocked A × Bᵀ kernel is bit-identical to the naive
// dot-product loop across shapes that exercise every micro-kernel remainder
// path (m, n ≡ 0..3 mod 4; tiny and empty dimensions included).
func TestMatMulTIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(13) + 1
		k := rng.Intn(40) + 1
		n := rng.Intn(13) + 1
		a := randTensor(rng, m, k)
		b := randTensor(rng, n, k)
		dst := New(m, n)
		matMulTInto(dst.Data(), a.Data(), b.Data(), m, k, n)
		want := refMatMulT(a, b)
		if !exactEqual(dst, want) {
			t.Fatalf("trial %d (m=%d k=%d n=%d): blocked A×Bᵀ diverged from reference", trial, m, k, n)
		}
		// The exported naive MatMulT must agree too (shared contract).
		if got := MatMulT(a, b); !got.Equal(want, 1e-12) {
			t.Fatalf("trial %d: MatMulT disagrees with reference", trial)
		}
	}
}

// prop: matMulTInto on zero-size edges neither panics nor writes garbage.
func TestMatMulTIntoEdgeShapes(t *testing.T) {
	matMulTInto(nil, nil, New(3, 5).Data(), 0, 5, 3) // must not panic
	dst2 := New(4, 4)
	matMulTInto(dst2.Data(), nil, nil, 4, 0, 4)
	for _, v := range dst2.Data() {
		if v != 0 {
			t.Fatalf("k=0 product must be all zeros, got %v", dst2.Data())
		}
	}
}

// prop: matMulDense over a stacked (batch·m, k) operand equals the
// slice-by-slice reference, bit for bit, for every batch entry — the
// 4-row blocking may straddle slice boundaries without changing a result.
func TestMatMulDenseMatchesPerSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		batch := rng.Intn(9) + 1
		m := rng.Intn(9) + 1
		k := rng.Intn(17) + 1
		n := rng.Intn(9) + 1
		a := randTensor(rng, batch, m, k)
		b := randTensor(rng, k, n)
		dst := New(batch, m, n)
		matMulDense(dst.Data(), a.Data(), b.Data(), batch*m, k, n)
		for bi := 0; bi < batch; bi++ {
			slice := FromSlice(a.Data()[bi*m*k:(bi+1)*m*k], m, k)
			want := refMatMul(slice, b)
			got := FromSlice(dst.Data()[bi*m*n:(bi+1)*m*n], m, n)
			if !exactEqual(got, want) {
				t.Fatalf("trial %d batch %d: matMulDense diverged", trial, bi)
			}
		}
	}
}

// prop: MatMulTBatchInto equals slice-by-slice MatMulT, bit for bit.
func TestMatMulTBatchIntoMatchesPerSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		batch := rng.Intn(9) + 1
		m := rng.Intn(9) + 1
		k := rng.Intn(17) + 1
		n := rng.Intn(9) + 1
		a := randTensor(rng, batch, m, k)
		b := randTensor(rng, n, k)
		dst := New(batch, m, n)
		MatMulTBatchInto(dst, a, b)
		for bi := 0; bi < batch; bi++ {
			slice := FromSlice(a.Data()[bi*m*k:(bi+1)*m*k], m, k)
			want := refMatMulT(slice, b)
			got := FromSlice(dst.Data()[bi*m*n:(bi+1)*m*n], m, n)
			if !exactEqual(got, want) {
				t.Fatalf("trial %d batch %d: MatMulTBatchInto diverged", trial, bi)
			}
		}
	}
}

// prop: the sparsity-gated matMulInto is bit-identical to the no-skip
// reference on dense, sparse and all-zero left operands — the gate may only
// change speed, never the result.
func TestMatMulSparsityGateTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, zeroFrac := range []float64{0, 0.1, 0.25, 0.6, 0.95, 1} {
		for trial := 0; trial < 40; trial++ {
			m := rng.Intn(11) + 1
			k := rng.Intn(23) + 1
			n := rng.Intn(11) + 1
			a := randTensor(rng, m, k)
			for i, d := 0, a.Data(); i < len(d); i++ {
				if rng.Float64() < zeroFrac {
					d[i] = 0
				}
			}
			b := randTensor(rng, k, n)
			got := MatMul(a, b)
			want := refMatMul(a, b)
			if !exactEqual(got, want) {
				t.Fatalf("zeroFrac=%.2f trial %d (m=%d k=%d n=%d): gated MatMul diverged from reference",
					zeroFrac, trial, m, k, n)
			}
		}
	}
}

// prop: both gated kernels agree with each other on the same operand, so the
// threshold value itself can never be observed through results.
func TestMatMulKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		m := rng.Intn(10) + 1
		k := rng.Intn(20) + 1
		n := rng.Intn(10) + 1
		a := randTensor(rng, m, k)
		// Mixed density: some exact zeros regardless of trial.
		ad := a.Data()
		for i := range ad {
			if rng.Float64() < 0.3 {
				ad[i] = 0
			}
		}
		b := randTensor(rng, k, n)
		dense := make([]float64, m*n)
		sparse := make([]float64, m*n)
		matMulDense(dense, a.Data(), b.Data(), m, k, n)
		matMulSparse(sparse, a.Data(), b.Data(), m, k, n)
		for i := range dense {
			if math.Float64bits(dense[i]) != math.Float64bits(sparse[i]) {
				t.Fatalf("trial %d: dense and sparse kernels disagree at %d: %v vs %v",
					trial, i, dense[i], sparse[i])
			}
		}
	}
}

func TestZeroFraction(t *testing.T) {
	if f := zeroFraction(nil); f != 0 {
		t.Fatalf("zeroFraction(nil) = %v", f)
	}
	if f := zeroFraction([]float64{0, 1, 0, 3}); f != 0.5 {
		t.Fatalf("zeroFraction = %v, want 0.5", f)
	}
}
