// Command benchdiff turns `go test -bench` output into a committed JSON
// baseline and gates CI on it.
//
//	go test -bench ... | benchdiff extract -o BENCH_forward.json
//	benchdiff compare -o bench_diff.txt old.json new.json
//	benchdiff verify new.json
//	benchdiff serve-extract -o BENCH_serve.json windows.json stream.json
//	benchdiff serve-verify BENCH_serve.json
//	benchdiff drill-verify slo.json slo_rerun.json
//
// The gates take no bar flags: every bar is a constant below, so a CI step
// cannot loosen one.
//
// Raw nanoseconds are not comparable across machines, so compare normalises
// every benchmark against an anchor benchmark recorded in the same run
// (BenchmarkKernelReference: a frozen naive kernel that optimisation work
// never touches, measuring the machine rather than the code). A benchmark
// regresses when its anchor-relative cost grows by more than 15%.
//
// verify checks the serving acceptance bars directly against the float
// single-window baseline (BenchmarkForwardSingle): the per-window cost of
// BenchmarkForwardBatch/b16 must beat it by at least 2×, and the int8 hot
// path (BenchmarkForwardInt8Batch/b16) by at least 3×.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const (
	defaultAnchor    = "BenchmarkKernelReference"
	benchSingle      = "BenchmarkForwardSingle"
	benchBatch16     = "BenchmarkForwardBatch/b16"
	benchInt8Batch16 = "BenchmarkForwardInt8Batch/b16"
	perWindowMetric  = "ns/window"
	regressThreshold = 0.15
	minBatchSpeedup  = 2.0
	minInt8Speedup   = 3.0
)

// Result is one benchmark's recorded costs: the headline ns/op plus every
// auxiliary metric go test printed (ns/window, B/op, allocs/op, ...). Over
// repeated -count runs the minimum is kept — the least-noisy estimate of the
// code's true cost.
type Result struct {
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the committed baseline format (BENCH_forward.json).
type File struct {
	Anchor     string            `json:"anchor"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "extract":
		err = cmdExtract(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "serve-extract":
		err = cmdServeExtract(os.Args[2:])
	case "serve-verify":
		err = cmdServeVerify(os.Args[2:])
	case "drill-verify":
		err = cmdDrillVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchdiff extract [-anchor name] [-o out.json] [bench.txt]
  benchdiff compare [-o report.txt] old.json new.json
  benchdiff verify new.json
  benchdiff serve-extract [-o serve.json] report.json...
  benchdiff serve-verify serve.json
  benchdiff drill-verify slo.json [twin_slo.json]`)
	os.Exit(2)
}

// procSuffix strips go test's -GOMAXPROCS name suffix (Benchmark/sub-4).
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output and returns per-benchmark minima.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		res := Result{NsPerOp: math.NaN(), Metrics: make(map[string]float64)}
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			if fields[i+1] == "ns/op" {
				res.NsPerOp = v
			} else {
				res.Metrics[fields[i+1]] = v
			}
		}
		if math.IsNaN(res.NsPerOp) {
			return nil, fmt.Errorf("%s: no ns/op field", name)
		}
		prev, seen := out[name]
		if !seen || res.NsPerOp < prev.NsPerOp {
			out[name] = res
		}
	}
	return out, sc.Err()
}

func cmdExtract(args []string) error {
	anchor, outPath := defaultAnchor, ""
	rest, err := parseFlags(args, map[string]*string{"-anchor": &anchor, "-o": &outPath})
	if err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if len(rest) == 1 {
		f, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	} else if len(rest) > 1 {
		return fmt.Errorf("extract takes at most one input file")
	}
	benches, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	if _, ok := benches[anchor]; !ok {
		return fmt.Errorf("anchor %s missing from input", anchor)
	}
	data, err := marshalIndent(File{Anchor: anchor, Benchmarks: benches})
	if err != nil {
		return err
	}
	if outPath == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

func marshalIndent(f File) ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func readFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Anchor == "" || len(f.Benchmarks) == 0 {
		return f, fmt.Errorf("%s: not a benchdiff file", path)
	}
	if _, ok := f.Benchmarks[f.Anchor]; !ok {
		return f, fmt.Errorf("%s: anchor %s not recorded", path, f.Anchor)
	}
	return f, nil
}

func cmdCompare(args []string) error {
	outPath := ""
	rest, err := parseFlags(args, map[string]*string{"-o": &outPath})
	if err != nil {
		return err
	}
	if len(rest) != 2 {
		return fmt.Errorf("compare needs exactly two files: old.json new.json")
	}
	old, err := readFile(rest[0])
	if err != nil {
		return err
	}
	niu, err := readFile(rest[1])
	if err != nil {
		return err
	}
	if old.Anchor != niu.Anchor {
		return fmt.Errorf("anchor mismatch: %s vs %s", old.Anchor, niu.Anchor)
	}
	anchorOld := old.Benchmarks[old.Anchor].NsPerOp
	anchorNew := niu.Benchmarks[niu.Anchor].NsPerOp

	names := make([]string, 0, len(old.Benchmarks))
	for name := range old.Benchmarks {
		if name != old.Anchor {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var report strings.Builder
	fmt.Fprintf(&report, "benchdiff: anchor %s old=%.0fns new=%.0fns threshold=%+.0f%%\n",
		old.Anchor, anchorOld, anchorNew, regressThreshold*100)
	fmt.Fprintf(&report, "%-40s %12s %12s %9s\n", "benchmark", "old(rel)", "new(rel)", "delta")
	failed := 0
	for _, name := range names {
		o := old.Benchmarks[name]
		n, ok := niu.Benchmarks[name]
		if !ok {
			fmt.Fprintf(&report, "%-40s %12.3f %12s %9s  MISSING\n", name, o.NsPerOp/anchorOld, "-", "-")
			failed++
			continue
		}
		relOld := o.NsPerOp / anchorOld
		relNew := n.NsPerOp / anchorNew
		delta := relNew/relOld - 1
		verdict := "ok"
		if delta > regressThreshold {
			verdict = "REGRESSED"
			failed++
		}
		fmt.Fprintf(&report, "%-40s %12.3f %12.3f %+8.1f%%  %s\n", name, relOld, relNew, delta*100, verdict)
	}
	fmt.Print(report.String())
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(report.String()), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", failed, regressThreshold*100)
	}
	return nil
}

func cmdVerify(args []string) error {
	rest, err := parseFlags(args, nil)
	if err != nil {
		return err
	}
	if len(rest) != 1 {
		return fmt.Errorf("verify needs exactly one file")
	}
	f, err := readFile(rest[0])
	if err != nil {
		return err
	}
	single, err := perWindow(f, benchSingle)
	if err != nil {
		return err
	}
	for _, bar := range []struct {
		bench string
		min   float64
	}{
		{benchBatch16, minBatchSpeedup},
		{benchInt8Batch16, minInt8Speedup},
	} {
		batch, err := perWindow(f, bar.bench)
		if err != nil {
			return err
		}
		speedup := single / batch
		fmt.Printf("benchdiff: per-window %s=%.0fns %s=%.0fns speedup=%.2fx (min %.2fx)\n",
			benchSingle, single, bar.bench, batch, speedup, bar.min)
		if speedup < bar.min {
			return fmt.Errorf("%s speedup %.2fx below required %.2fx", bar.bench, speedup, bar.min)
		}
	}
	return nil
}

func perWindow(f File, name string) (float64, error) {
	res, ok := f.Benchmarks[name]
	if !ok {
		return 0, fmt.Errorf("%s not recorded", name)
	}
	v, ok := res.Metrics[perWindowMetric]
	if !ok || v <= 0 {
		return 0, fmt.Errorf("%s has no %s metric", name, perWindowMetric)
	}
	return v, nil
}

// parseFlags handles the tiny -flag value option set these subcommands use
// and returns positional arguments.
func parseFlags(args []string, opts map[string]*string) ([]string, error) {
	var rest []string
	for i := 0; i < len(args); i++ {
		dst, ok := opts[args[i]]
		if !ok {
			if strings.HasPrefix(args[i], "-") {
				return nil, fmt.Errorf("unknown flag %s", args[i])
			}
			rest = append(rest, args[i])
			continue
		}
		if i+1 >= len(args) {
			return nil, fmt.Errorf("%s needs a value", args[i])
		}
		i++
		*dst = args[i]
	}
	return rest, nil
}
