// Command perfbench is the repository benchmark. For one workload and seed
// it starts the serving stack in-process, drives it open-loop, checks every
// served class against a serial replay, and prints one JSON result line.
//
//	go run . --workload votes-fleet --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, and the span file and layer
// table are written under -out. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"origin/internal/fleet"
)

// setupProbes is how many extra set-ups a measured run times in child
// processes; setup_s is the median over them and the run's own set-up.
const setupProbes = 4

// windowRounds is the size of the windows the nominal phase is cut into;
// the latency metrics are medians over the windows, each window leaving
// twenty samples beyond its p99.
const windowRounds = 2000

// cpuInterval is how often a phase samples process CPU time; the CPU per
// round of a phase is the median over the intervals.
const cpuInterval = 250 * time.Millisecond

// ladderAttempts is how many times a ladder rung is tried before it counts
// as missed.
const ladderAttempts = 2

// runDeadline ends a run that hangs, well inside the three minutes a run
// may take.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: votes-fleet, stream-mem or stream-store")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 16, "measured seconds at the nominal rate (a traced run spends half untraced, half traced, and half on the capacity ladder)")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "trace"), "directory for span files and layer tables")
		prepare = flag.Bool("prepare", false, "load the model, training the model cache if it is cold, and exit")
		probe   = flag.Bool("probe-setup", false, "time one set-up and print its seconds (used by measured runs)")
	)
	flag.Parse()
	if *prepare {
		// Training a cold model cache takes minutes and is never timed.
		if _, err := fleet.DefaultBuild(profile); err != nil {
			fatal(err)
		}
		return
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(3)
	})
	wl, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	if *probe {
		s, err := timeSetup(wl, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(s)
		return
	}
	res, err := run(wl, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// timeSetup builds and tears down one stack, returning the CPU seconds its
// set-up took. It generates inputs for the warm-up rounds only.
func timeSetup(wl workload, seed int64) (float64, error) {
	in := newInputs(wl, seed, (wl.warmup+wl.wearers-1)/wl.wearers)
	cpu0 := cpuTime()
	st, err := newStack(wl, in, seed, false)
	if err != nil {
		return 0, err
	}
	s := (cpuTime() - cpu0).Seconds()
	st.close()
	return s, nil
}

// probeSetups times set-up in fresh child processes, so each one loads the
// model from the cache as a cold start does.
func probeSetups(wl workload, seed int64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "-probe-setup", "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runState carries what the phases of one run accumulate.
type runState struct {
	wl        workload
	st        *stack
	served    [][]int8 // [wearer][k]: class answered, or notServed
	attempted int
	failed    int
}

// record folds a finished phase's answers into the served sequences.
func (rs *runState) record(rounds []*round) {
	for _, r := range rounds {
		for len(rs.served[r.wearer]) <= r.k {
			rs.served[r.wearer] = append(rs.served[r.wearer], notServed)
		}
		if r.sent >= 0 {
			rs.attempted++
		}
		if r.failed {
			rs.failed++
		}
		if r.answered() {
			rs.served[r.wearer][r.k] = int8(r.class)
		}
	}
}

// nominal is what one nominal-rate phase measured.
type nominal struct {
	stats      phaseStats
	p50, p99   float64 // medians over the windows, ms
	lateP99    float64 // p99 of how late rounds were sent, ms
	tailOK     bool    // every window had minTail samples beyond its p99
	cpuUs      float64 // process CPU per answered round
	uplink     float64 // client bytes written per answered round
	spans      []span
	rounds     []*round
	memBefore  runtime.MemStats
	memAfter   runtime.MemStats
	snapBefore fleet.MetricsSnapshot
	snapAfter  fleet.MetricsSnapshot
	depthMax   int
	parseNs    int64
	parseN     int64
	flushes    int64
}

// runNominal runs one phase at the workload's nominal rate.
func (rs *runState) runNominal(d time.Duration, traced bool) (*nominal, error) {
	st, wl := rs.st, rs.wl
	rounds := schedule(roundsAt(wl.nominalRPS, d), wl.nominalRPS, wl.wearers, st.next)
	n := &nominal{rounds: rounds}
	var stopDepth func() int
	if traced {
		runtime.ReadMemStats(&n.memBefore)
		n.snapBefore = st.mgr.Snapshot()
		n.parseNs, n.parseN, n.flushes = st.metrics.ParseNanos.Load(), st.metrics.ParseRounds.Load(), st.metrics.StreamResultFlushes.Load()
		stopDepth = sampleDepth(st.mgr)
	}
	up0 := st.uplink()
	stopCPU := sampleCPU(cpuInterval)
	spans, start, err := st.runPhase(rounds, 0, traced)
	cpuSamples := stopCPU(start)
	up1 := st.uplink()
	if traced {
		n.depthMax = stopDepth()
		runtime.ReadMemStats(&n.memAfter)
		n.snapAfter = st.mgr.Snapshot()
		n.parseNs = st.metrics.ParseNanos.Load() - n.parseNs
		n.parseN = st.metrics.ParseRounds.Load() - n.parseN
		n.flushes = st.metrics.StreamResultFlushes.Load() - n.flushes
	}
	if err != nil {
		return nil, err
	}
	rs.record(rounds)
	n.spans = spans
	n.stats = summarize(rounds, st.in.truthOf)
	if n.stats.answered > 0 {
		n.cpuUs = cpuPerRound(cpuSamples, rounds)
		n.uplink = float64(up1-up0) / float64(n.stats.answered)
	}
	var p50s, p99s []float64
	n.tailOK = true
	for _, win := range windows(rounds, windowRounds) {
		ws := summarize(win, nil)
		p50, _, _ := tailPercentile(ws.latMs, 0.5)
		p99, used, ok := tailPercentile(ws.latMs, 0.99)
		n.tailOK = n.tailOK && ok && used >= 0.99
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	n.p50, n.p99 = median(p50s), median(p99s)
	n.lateP99, _, _ = tailPercentile(n.stats.lateMs, 0.99)
	// Keep the generator's per-round records out of the heap figures.
	n.stats.latMs, n.stats.lateMs = nil, nil
	if !traced {
		n.rounds = nil
	}
	return n, nil
}

// runLadder climbs the capacity ladder until a rung misses. A rung gets a
// second attempt before it counts as missed, so one transient stall of the
// host cannot end the climb; a rate the stack cannot sustain misses both.
func (rs *runState) runLadder(step time.Duration) ([]stepVerdict, error) {
	var steps []stepVerdict
	for _, rate := range rs.wl.ladder {
		var v stepVerdict
		for attempt := 0; attempt < ladderAttempts && !v.pass; attempt++ {
			rounds := schedule(roundsAt(rate, step), rate, rs.wl.wearers, rs.st.next)
			if _, _, err := rs.st.runPhase(rounds, step+time.Second, false); err != nil {
				return steps, err
			}
			rs.record(rounds)
			v = judgeStep(rate, rounds, step)
			fmt.Fprintf(os.Stderr, "perfbench: ladder %6.0f rounds/s  p99 %8.3f ms  backlog %d->%d  %s\n",
				rate, v.p99Ms, v.backlogMid, v.backlogEnd, verdictText(v))
		}
		steps = append(steps, v)
		if !v.pass {
			break
		}
	}
	return steps, nil
}

func verdictText(v stepVerdict) string {
	if v.pass {
		return "pass"
	}
	return "miss: " + v.reason
}

func run(wl workload, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	p := planFor(wl, seconds, traced)
	var setups []float64
	var err error
	if !traced {
		if setups, err = probeSetups(wl, seed); err != nil {
			return nil, err
		}
	}
	maxRounds := p.maxRoundsPerWearer(wl, traced)
	in := newInputs(wl, seed, maxRounds)
	rs := &runState{wl: wl, served: make([][]int8, wl.wearers)}
	for w := range rs.served {
		rs.served[w] = make([]int8, 0, maxRounds)
	}
	// The benchmark's inputs and records exist before this point and do not
	// grow, so the heap above this baseline is the serving stack's.
	heapBase := liveHeap()
	cpu0 := cpuTime()
	st, err := newStack(wl, in, seed, traced)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setups = append(setups, (cpuTime() - cpu0).Seconds())
	rs.st = st
	rs.record(st.warmup) // warm-up rounds are part of every session's sequence

	nom, err := rs.runNominal(p.nominal, false)
	if err != nil {
		return nil, err
	}
	heapMB := (float64(liveHeap()) - float64(heapBase)) / (1 << 20)

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, seed))
	var tr *nominal
	var rep traceReport
	var steps []stepVerdict
	var ladderBefore, ladderAfter fleet.MetricsSnapshot
	var heapPerSession float64
	if traced {
		if tr, err = rs.runNominal(p.nominal, true); err != nil {
			return nil, err
		}
		rep = st.analyze(tr, base)
		tr.rounds, tr.spans = nil, nil
		ladderBefore = st.mgr.Snapshot()
		if steps, err = rs.runLadder(p.step); err != nil {
			return nil, err
		}
		ladderAfter = st.mgr.Snapshot()
		heapPerSession = (float64(liveHeap()) - float64(st.heapBase)) / float64(wl.wearers)
	}
	if ev := st.mgr.Snapshot().SessionsEvicted; ev != 0 {
		return nil, fmt.Errorf("%d sessions were evicted; the replay assumes none", ev)
	}
	reconnects := st.reconnects()
	ids := st.ids
	st.close()

	mismatches, serial, err := replay(wl, in.cfg, ids, rs.served, traced)
	if err != nil {
		return nil, fmt.Errorf("serial replay: %w", err)
	}
	correct := mismatches == 0 && rs.failed == 0 && reconnects == 0 && nom.tailOK
	failed := rs.failed
	if mismatches > 0 {
		failed = rs.attempted
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: nominal %.0f rounds/s answered %d/%d p50 %.3f ms p99 %.3f ms late p99 %.3f ms cpu %.1f us/round; mismatches %d failed %d reconnects %d\n",
		wl.name, seed, wl.nominalRPS, nom.stats.answered, nom.stats.attempted, nom.p50, nom.p99, nom.lateP99, nom.cpuUs,
		mismatches, rs.failed, reconnects)
	if !nom.tailOK {
		fmt.Fprintf(os.Stderr, "perfbench: a nominal window had fewer than %d samples beyond its p99\n", minTail)
	}

	res := &result{Correct: correct, Attempted: rs.attempted, Failed: failed}
	if !traced {
		res.Metrics = map[string]metric{
			"setup_s":                {median(setups), "s"},
			"cpu_us_per_round":       {nom.cpuUs, "us"},
			"uplink_bytes_per_round": {nom.uplink, "B"},
			"heap_live_mb":           {heapMB, "MiB"},
			"accuracy":               {perUnit(float64(nom.stats.correct), float64(nom.stats.answered)), "ratio"},
		}
		return res, nil
	}
	res.Metrics = layerMetrics(layerInputs{
		wl: wl, st: st, untraced: nom, traced: tr, trace: &rep, steps: steps,
		ladderBefore: ladderBefore, ladderAfter: ladderAfter,
		heapPerSession: heapPerSession, serial: serial,
		failedRatio: float64(failed) / float64(max(1, rs.attempted)),
	}, base, seed)
	return res, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap still in use after forced collections. The second
// collection also empties the sync.Pool victim caches, so pooled scratch
// (net clones, buffers) does not make the figure depend on recent load.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sampleCPU reads the process CPU time every interval, and once more when
// the returned stop function is called. stop returns the samples timed
// from the phase start it is given.
func sampleCPU(interval time.Duration) func(phaseStart time.Time) []cpuSample {
	type reading struct {
		at  time.Time
		cpu time.Duration
	}
	readings := []reading{{time.Now(), cpuTime()}}
	stop := make(chan struct{})
	done := make(chan []reading)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- append(readings, reading{time.Now(), cpuTime()})
				return
			case <-t.C:
				readings = append(readings, reading{time.Now(), cpuTime()})
			}
		}
	}()
	return func(phaseStart time.Time) []cpuSample {
		close(stop)
		var out []cpuSample
		for _, r := range <-done {
			out = append(out, cpuSample{r.at.Sub(phaseStart), r.cpu})
		}
		return out
	}
}

// sampleDepth polls the manager's queue depth every millisecond until the
// returned stop function is called; stop returns the deepest queue seen.
func sampleDepth(mgr *fleet.Manager) func() int {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		deepest := 0
		for {
			select {
			case <-stop:
				done <- deepest
				return
			case <-t.C:
				deepest = max(deepest, mgr.Snapshot().QueueDepth)
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}
