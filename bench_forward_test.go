package origin

// Forward-throughput benchmarks for the batched inference hot path. These
// are the benchmarks cmd/benchdiff gates CI on (see BENCH_forward.json and
// the bench-regression job): BenchmarkForwardSingle is the single-window
// Predict baseline, BenchmarkForwardBatch/b<N> the batched PredictBatch
// path per batch size, and the ForwardInt8 pair the quantized
// hot path on the same architecture (gated at ≥3× the float single-window
// baseline at b16). All report ns/window so the per-window speedup is read
// directly off the bench log. They run the default HAR architecture on dnn
// nets directly — no system build, no training — so the bench-regression job
// stays fast.

import (
	"fmt"
	"math/rand"
	"testing"

	"origin/internal/dnn"
	"origin/internal/synth"
	"origin/internal/tensor"
)

const benchWindow = 64

func benchForwardNet() *dnn.Network {
	rng := rand.New(rand.NewSource(71))
	return dnn.NewHARNetwork(rng, dnn.DefaultHARConfig(synth.Channels, benchWindow, 5))
}

// BenchmarkForwardSingle is the unbatched per-window baseline: one Predict
// (forward + softmax + argmax) per op.
func BenchmarkForwardSingle(b *testing.B) {
	net := benchForwardNet()
	rng := rand.New(rand.NewSource(73))
	x := tensor.New(synth.Channels, benchWindow)
	x.RandNormal(rng, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
}

// BenchmarkForwardBatch scores one batch per op via PredictBatch, per batch
// size. The acceptance bar (enforced by make verify-bench) is ≥2× the
// single-window per-window throughput at b16.
func BenchmarkForwardBatch(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("b%d", batch), func(b *testing.B) {
			net := benchForwardNet()
			rng := rand.New(rand.NewSource(79))
			x := tensor.New(batch, synth.Channels, benchWindow)
			x.RandNormal(rng, 0, 1)
			net.PredictBatch(x) // warm the arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.PredictBatch(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/window")
		})
	}
}

func benchInt8Net(b *testing.B) *dnn.QuantizedNetwork {
	b.Helper()
	q, err := dnn.NewQuantizedNetwork(benchForwardNet())
	if err != nil {
		b.Fatalf("NewQuantizedNetwork: %v", err)
	}
	return q
}

// BenchmarkForwardInt8Single is the quantized single-window path: one int8
// Predict per op on the same architecture as BenchmarkForwardSingle.
func BenchmarkForwardInt8Single(b *testing.B) {
	q := benchInt8Net(b)
	rng := rand.New(rand.NewSource(73))
	x := tensor.New(synth.Channels, benchWindow)
	x.RandNormal(rng, 0, 1)
	q.Predict(x) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Predict(x)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
}

// BenchmarkForwardInt8Batch is the quantized batched path. The
// acceptance bar (enforced by make verify-bench) is ≥3× the float
// single-window per-window throughput at b16.
func BenchmarkForwardInt8Batch(b *testing.B) {
	for _, batch := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("b%d", batch), func(b *testing.B) {
			q := benchInt8Net(b)
			rng := rand.New(rand.NewSource(79))
			x := tensor.New(batch, synth.Channels, benchWindow)
			x.RandNormal(rng, 0, 1)
			q.PredictBatch(x) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.PredictBatch(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/window")
		})
	}
}
