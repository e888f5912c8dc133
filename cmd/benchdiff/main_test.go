package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: origin
BenchmarkForwardSingle-4 	   40909	     30229 ns/op	     30229 ns/window	   47267 B/op	      78 allocs/op
BenchmarkForwardSingle-4 	   41000	     31000 ns/op	     31000 ns/window	   47267 B/op	      78 allocs/op
BenchmarkForwardBatch/b16-4      	    5436	    201255 ns/op	     12578 ns/window	    1600 B/op	      54 allocs/op
pkg: origin/internal/tensor
BenchmarkKernelReference-4       	    4000	    300000 ns/op	     100 MFLOP/s
`

func TestParseBenchKeepsMinAndStripsProcSuffix(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	single, ok := benches["BenchmarkForwardSingle"]
	if !ok {
		t.Fatalf("proc suffix not stripped: %v", benches)
	}
	if single.NsPerOp != 30229 {
		t.Fatalf("min of repeats not kept: got %v", single.NsPerOp)
	}
	if single.Metrics["ns/window"] != 30229 || single.Metrics["allocs/op"] != 78 {
		t.Fatalf("metrics not recorded: %v", single.Metrics)
	}
	if _, ok := benches["BenchmarkKernelReference"]; !ok {
		t.Fatal("anchor line not parsed")
	}
}

// writeBaseline builds a benchdiff File on disk from (name, ns) pairs, with
// the anchor at the given cost — simulating machines of different speeds.
func writeBaseline(t *testing.T, path string, anchorNs float64, ns map[string]float64) {
	t.Helper()
	f := File{Anchor: defaultAnchor, Benchmarks: map[string]Result{
		defaultAnchor: {NsPerOp: anchorNs},
	}}
	for name, v := range ns {
		f.Benchmarks[name] = Result{NsPerOp: v}
	}
	data, err := jsonMarshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func jsonMarshal(f File) ([]byte, error) {
	return marshalIndent(f)
}

func TestCompareNormalisesAgainstAnchor(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	// New machine is uniformly 2x slower (anchor too): no regression.
	writeBaseline(t, oldPath, 1000, map[string]float64{"BenchmarkX": 5000})
	writeBaseline(t, newPath, 2000, map[string]float64{"BenchmarkX": 10000})
	if err := cmdCompare([]string{oldPath, newPath}); err != nil {
		t.Fatalf("uniform slowdown flagged as regression: %v", err)
	}
}

func TestCompareFlagsRealRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	// Anchor steady, benchmark 30% slower: over the fixed 15% threshold.
	writeBaseline(t, oldPath, 1000, map[string]float64{"BenchmarkX": 5000})
	writeBaseline(t, newPath, 1000, map[string]float64{"BenchmarkX": 6500})
	err := cmdCompare([]string{oldPath, newPath})
	if err == nil {
		t.Fatal("30% regression passed the 15% gate")
	}
	// The threshold is not a flag: asking to loosen it is refused.
	if err := cmdCompare([]string{"-threshold", "0.5", oldPath, newPath}); err == nil || !strings.Contains(err.Error(), "unknown flag -threshold") {
		t.Fatalf("retired -threshold flag not refused: %v", err)
	}
	// 14% slower stays under the bar.
	writeBaseline(t, newPath, 1000, map[string]float64{"BenchmarkX": 5700})
	if err := cmdCompare([]string{oldPath, newPath}); err != nil {
		t.Fatalf("14%% slowdown failed the 15%% gate: %v", err)
	}
}

func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBaseline(t, oldPath, 1000, map[string]float64{"BenchmarkGone": 5000})
	writeBaseline(t, newPath, 1000, map[string]float64{"BenchmarkNew": 5000})
	if err := cmdCompare([]string{oldPath, newPath}); err == nil {
		t.Fatal("dropped benchmark not flagged")
	}
}

func TestCompareWritesReport(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	report := filepath.Join(dir, "diff.txt")
	writeBaseline(t, oldPath, 1000, map[string]float64{"BenchmarkX": 5000})
	writeBaseline(t, newPath, 1000, map[string]float64{"BenchmarkX": 5100})
	if err := cmdCompare([]string{"-o", report, oldPath, newPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkX") {
		t.Fatalf("report missing benchmark row:\n%s", data)
	}
}

func TestVerifySpeedupGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	f := File{Anchor: defaultAnchor, Benchmarks: map[string]Result{
		defaultAnchor:    {NsPerOp: 1000},
		benchSingle:      {NsPerOp: 30000, Metrics: map[string]float64{perWindowMetric: 30000}},
		benchBatch16:     {NsPerOp: 200000, Metrics: map[string]float64{perWindowMetric: 12500}},
		benchInt8Batch16: {NsPerOp: 152000, Metrics: map[string]float64{perWindowMetric: 9500}},
	}}
	data, err := marshalIndent(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Float 2.4x vs 2x bar, int8 3.16x vs 3x bar: both pass.
	if err := cmdVerify([]string{path}); err != nil {
		t.Fatalf("fixed gates failed: %v", err)
	}
	// The bars are not flags: asking to move one is refused.
	for _, flag := range []string{"-min", "-min-int8"} {
		if err := cmdVerify([]string{flag, "1.0", path}); err == nil || !strings.Contains(err.Error(), "unknown flag "+flag) {
			t.Fatalf("retired %s flag not refused: %v", flag, err)
		}
	}
	// Just under either fixed bar fails: float 1.95x, then int8 2.96x.
	for _, tc := range []struct {
		bench     string
		perWindow float64
	}{
		{benchBatch16, 30000 / 1.95},
		{benchInt8Batch16, 30000 / 2.96},
	} {
		g := File{Anchor: f.Anchor, Benchmarks: map[string]Result{}}
		for name, r := range f.Benchmarks {
			g.Benchmarks[name] = r
		}
		g.Benchmarks[tc.bench] = Result{NsPerOp: 16 * tc.perWindow, Metrics: map[string]float64{perWindowMetric: tc.perWindow}}
		data, err := marshalIndent(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdVerify([]string{path}); err == nil || !strings.Contains(err.Error(), tc.bench) {
			t.Fatalf("%s just under its bar passed: %v", tc.bench, err)
		}
	}
}

// prop: verify refuses a baseline missing the int8 bar — the quantized
// benchmark is part of the committed contract, not optional.
func TestVerifyRequiresInt8Bench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	f := File{Anchor: defaultAnchor, Benchmarks: map[string]Result{
		defaultAnchor: {NsPerOp: 1000},
		benchSingle:   {NsPerOp: 30000, Metrics: map[string]float64{perWindowMetric: 30000}},
		benchBatch16:  {NsPerOp: 200000, Metrics: map[string]float64{perWindowMetric: 12500}},
	}}
	data, err := marshalIndent(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{path}); err == nil {
		t.Fatal("verify passed without the int8 benchmark recorded")
	}
}

func TestExtractRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdExtract([]string{"-o", out, in}); err != nil {
		t.Fatal(err)
	}
	f, err := readFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if f.Anchor != defaultAnchor || f.Benchmarks[benchBatch16].Metrics["ns/window"] != 12578 {
		t.Fatalf("round trip mangled data: %+v", f)
	}
}
