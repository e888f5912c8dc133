package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks for the GEMM hot path. BenchmarkKernelReference is the
// anchor benchmark cmd/benchdiff normalises against: it exercises a frozen
// naive loop that no optimisation work touches, so ratios of the other
// kernels to it are comparable across machines (the CI runner is not the
// machine BENCH_forward.json was recorded on).

// benchKernelRef is the frozen naive ikj loop (no skip, no blocking). It
// must never be "optimised": it exists to measure the machine, not the code.
func benchKernelRef(c, a, b []float64, m, k, n int) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for p, av := range arow {
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

func benchOperands(m, k, n int, zeroFrac float64) (c, a, b []float64) {
	rng := rand.New(rand.NewSource(1))
	a = make([]float64, m*k)
	b = make([]float64, k*n)
	c = make([]float64, m*n)
	for i := range a {
		if rng.Float64() < zeroFrac {
			continue
		}
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return c, a, b
}

// BenchmarkKernelReference anchors benchdiff's machine normalisation.
func BenchmarkKernelReference(bench *testing.B) {
	const m, k, n = 64, 64, 64
	c, a, b := benchOperands(m, k, n, 0)
	bench.ReportAllocs()
	for i := 0; i < bench.N; i++ {
		benchKernelRef(c, a, b, m, k, n)
	}
	reportFlops(bench, m, k, n)
}

// matMulShapes are the GEMM geometries the serving stack actually runs: the
// two im2col-lowered conv stages and the dense head at batch 16, plus a
// square case for context.
var matMulShapes = []struct {
	name    string
	m, k, n int
}{
	{"conv1-b16", 16 * 60, 30, 8},
	{"conv2-b16", 16 * 26, 40, 12},
	{"dense-b16", 16, 156, 24},
	{"square64", 64, 64, 64},
}

// BenchmarkMatMulNaive measures the pre-existing zero-skip ikj kernel on
// dense operands (the branch is pure overhead here — the "before" of the
// sparsity-gate change).
func BenchmarkMatMulNaive(bench *testing.B) {
	for _, s := range matMulShapes {
		bench.Run(s.name, func(bench *testing.B) {
			c, a, b := benchOperands(s.m, s.k, s.n, 0)
			bench.ReportAllocs()
			for i := 0; i < bench.N; i++ {
				matMulSparse(c, a, b, s.m, s.k, s.n)
			}
			reportFlops(bench, s.m, s.k, s.n)
		})
	}
}

// BenchmarkMatMulBlocked measures the register-blocked dense kernel on the
// same shapes (the "after").
func BenchmarkMatMulBlocked(bench *testing.B) {
	for _, s := range matMulShapes {
		bench.Run(s.name, func(bench *testing.B) {
			c, a, b := benchOperands(s.m, s.k, s.n, 0)
			bench.ReportAllocs()
			for i := 0; i < bench.N; i++ {
				matMulDense(c, a, b, s.m, s.k, s.n)
			}
			reportFlops(bench, s.m, s.k, s.n)
		})
	}
}

// BenchmarkMatMulSparseWeights shows where the zero-skip branch still earns
// its keep: 80%-pruned left operands, the regime the gate routes to it.
func BenchmarkMatMulSparseWeights(bench *testing.B) {
	for _, kernel := range []struct {
		name string
		fn   func(c, a, b []float64, m, k, n int)
	}{
		{"skip", matMulSparse},
		{"dense", matMulDense},
	} {
		bench.Run(kernel.name, func(bench *testing.B) {
			const m, k, n = 64, 64, 64
			c, a, b := benchOperands(m, k, n, 0.8)
			bench.ReportAllocs()
			for i := 0; i < bench.N; i++ {
				kernel.fn(c, a, b, m, k, n)
			}
			reportFlops(bench, m, k, n)
		})
	}
}

// BenchmarkMatMulT compares the naive dot-product layout kernel with the
// register-blocked matMulTInto that the batched forward path uses.
func BenchmarkMatMulT(bench *testing.B) {
	for _, s := range matMulShapes {
		a := New(s.m, s.k)
		bt := New(s.n, s.k)
		rng := rand.New(rand.NewSource(2))
		a.RandNormal(rng, 0, 1)
		bt.RandNormal(rng, 0, 1)
		dst := New(s.m, s.n)
		bench.Run(fmt.Sprintf("naive/%s", s.name), func(bench *testing.B) {
			bench.ReportAllocs()
			for i := 0; i < bench.N; i++ {
				MatMulT(a, bt)
			}
			reportFlops(bench, s.m, s.k, s.n)
		})
		bench.Run(fmt.Sprintf("blocked/%s", s.name), func(bench *testing.B) {
			bench.ReportAllocs()
			for i := 0; i < bench.N; i++ {
				matMulTInto(dst.Data(), a.Data(), bt.Data(), s.m, s.k, s.n)
			}
			reportFlops(bench, s.m, s.k, s.n)
		})
	}
}

func reportFlops(bench *testing.B, m, k, n int) {
	flops := 2 * float64(m) * float64(k) * float64(n)
	bench.ReportMetric(flops*float64(bench.N)/bench.Elapsed().Seconds()/1e9, "gflops")
}
