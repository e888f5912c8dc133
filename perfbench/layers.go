package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"origin/internal/fleet"
)

// endToEnd lists the metrics of an untraced run with their units, in the
// order BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_us_per_round", "us"},
	{"uplink_bytes_per_round", "B"},
	{"heap_live_mb", "MiB"},
	{"accuracy", "ratio"},
}

// perLayer lists the metrics of a traced run with their units, in the order
// BENCHMARK.json lists them. A metric whose layer a workload does not
// exercise reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"round_p50_ms", "ms"},
	{"round_p99_ms", "ms"},
	{"capacity_rps", "rounds/s"},
	{"serve.http.handler_us.mean", "us"},
	{"serve.http.handler_us.p99", "us"},
	{"serve.parse_ns_per_round", "ns"},
	{"serve.stream.conn_reads_per_round", "count"},
	{"serve.stream.conn_writes_per_round", "count"},
	{"serve.stream.downlink_bytes_per_round", "B"},
	{"serve.stream.result_flushes_per_round", "count"},
	{"fleet.queue.shed_ratio", "ratio"},
	{"fleet.queue.depth_max", "count"},
	{"fleet.batch.mean_size", "count"},
	{"fleet.store.put_us.mean", "us"},
	{"fleet.store.put_us.p99", "us"},
	{"fleet.store.load_us.mean", "us"},
	{"fleet.store.puts_per_round", "count"},
	{"fleet.store.loads_per_round", "count"},
	{"fleet.store.blob_bytes", "B"},
	{"fleet.store.round_share", "ratio"},
	{"store_bytes_per_round", "B"},
	{"fleet.heap_bytes_per_session", "B"},
	{"runtime.alloc_bytes_per_round", "B"},
	{"runtime.allocs_per_round", "count"},
	{"runtime.gc_cycles_per_1k_rounds", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"generator.late_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"trace.unaccounted_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"comm.decode_ns_per_frame", "ns"},
	{"serve.assemble_ns_per_round", "ns"},
	{"serve.http.decode_ns_per_round", "ns"},
	{"dnn.forward_us_per_window", "us"},
	{"fleet.session.classify_us", "us"},
	{"fleet.session.vote_adapt_us", "us"},
	{"fleet.codec.encode_us", "us"},
	{"fleet.codec.state_bytes", "B"},
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	wl                        workload
	st                        *stack
	untraced, traced          *nominal
	trace                     *traceReport
	steps                     []stepVerdict
	ladderBefore, ladderAfter fleet.MetricsSnapshot
	heapPerSession            float64
	serial                    serialTimes
	failedRatio               float64
}

// analyze links a traced phase's spans to its rounds and writes them to
// base.spans.jsonl. The returned report keeps no spans.
func (st *stack) analyze(tr *nominal, base string) traceReport {
	rep := analyzeTrace(tr.rounds, tr.spans, func(key string) (int, bool) {
		if n, ok := strings.CutPrefix(key, "conn-"); ok {
			w, err := strconv.Atoi(n)
			return w, err == nil && w < st.wl.wearers
		}
		w, ok := st.wearerOf[key]
		return w, ok
	})
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span file: %v\n", err)
	} else if err := writeSpans(base+".spans.jsonl", rep.spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span file: %v\n", err)
	}
	rep.spans = nil
	return rep
}

// layerMetrics computes the per-layer metrics of a traced run and writes
// the layer table to base.layers.txt.
func layerMetrics(li layerInputs, base string, seed int64) map[string]metric {
	tr, st, rep := li.traced, li.st, li.trace
	rounds := float64(tr.stats.answered)
	per := func(v float64) float64 { return perUnit(v, rounds) }
	handler := rep.rowFor("serve.http.handler")
	put, load := rep.rowFor("fleet.store.put"), rep.rowFor("fleet.store.load")
	p99 := func(r *layerRow) float64 { return percentileOrMax(r.durUs, 0.99) }

	mb, ma := &tr.memBefore, &tr.memAfter
	var pauses []float64
	for g := mb.NumGC + 1; g <= ma.NumGC && ma.NumGC-g < uint32(len(ma.PauseNs)); g++ {
		pauses = append(pauses, float64(ma.PauseNs[(g+255)%256])/1e3)
	}
	sort.Float64s(pauses)
	gcP99 := percentileOrMax(pauses, 0.99)

	ladderShed := float64(li.ladderAfter.RequestsShed - li.ladderBefore.RequestsShed)
	ladderAccepted := float64(li.ladderAfter.RequestsAccepted - li.ladderBefore.RequestsAccepted)
	batched := float64(tr.snapAfter.WindowsBatched - tr.snapBefore.WindowsBatched)
	flushes := float64(tr.snapAfter.BatchFlushes - tr.snapBefore.BatchFlushes)

	var putBytes float64
	if st.store != nil {
		putBytes = float64(st.store.putBytes.Load())
	}
	var reads, writes, down float64
	if st.conns != nil {
		reads, writes, down = float64(st.conns.reads.Load()), float64(st.conns.writes.Load()), float64(st.conns.downlinkBytes.Load())
	}
	if !li.wl.stream {
		reads, writes, down = 0, 0, 0
	}
	sr := li.serial
	forward := perUnit(sr.forwardUs, sr.windows)
	windowsPerRound := perUnit(sr.windows, sr.forwardRounds)
	classify := perUnit(sr.classifyUs, sr.classified)

	values := map[string]float64{
		"round_p50_ms":                          li.untraced.p50,
		"round_p99_ms":                          li.untraced.p99,
		"capacity_rps":                          capacity(li.steps),
		"serve.http.handler_us.mean":            mean(handler.durUs),
		"serve.http.handler_us.p99":             p99(handler),
		"serve.parse_ns_per_round":              perUnit(float64(tr.parseNs), float64(tr.parseN)),
		"serve.stream.conn_reads_per_round":     per(reads),
		"serve.stream.conn_writes_per_round":    per(writes),
		"serve.stream.downlink_bytes_per_round": per(down),
		"serve.stream.result_flushes_per_round": per(float64(tr.flushes)),
		"fleet.queue.shed_ratio":                perUnit(ladderShed, ladderShed+ladderAccepted),
		"fleet.queue.depth_max":                 float64(tr.depthMax),
		"fleet.batch.mean_size":                 perUnit(batched, flushes),
		"fleet.store.put_us.mean":               mean(put.durUs),
		"fleet.store.put_us.p99":                p99(put),
		"fleet.store.load_us.mean":              mean(load.durUs),
		"fleet.store.puts_per_round":            put.perRound,
		"fleet.store.loads_per_round":           load.perRound,
		"fleet.store.blob_bytes":                perUnit(putBytes, float64(put.count)),
		"fleet.store.round_share":               perUnit(rep.groupCoverUs["fleet.store"], rep.roundUs),
		"store_bytes_per_round":                 per(putBytes),
		"fleet.heap_bytes_per_session":          li.heapPerSession,
		"runtime.alloc_bytes_per_round":         per(float64(ma.TotalAlloc - mb.TotalAlloc)),
		"runtime.allocs_per_round":              per(float64(ma.Mallocs - mb.Mallocs)),
		"runtime.gc_cycles_per_1k_rounds":       per(float64(ma.NumGC-mb.NumGC)) * 1000,
		"runtime.gc_pause_p99_us":               gcP99,
		"generator.late_p99_ms":                 li.untraced.lateP99,
		"failed_ratio":                          li.failedRatio,
		"trace.unaccounted_share":               rep.unaccounted,
		"trace.overhead_share":                  perUnit(tr.cpuUs, li.untraced.cpuUs) - 1,
		"comm.decode_ns_per_frame":              perUnit(sr.frameDecodeNs, sr.frames),
		"serve.assemble_ns_per_round":           perUnit(sr.assembleNs, sr.assembled),
		"serve.http.decode_ns_per_round":        perUnit(sr.httpDecodeNs, sr.decoded),
		"dnn.forward_us_per_window":             forward,
		"fleet.session.classify_us":             classify,
		"fleet.session.vote_adapt_us":           classify - forward*windowsPerRound,
		"fleet.codec.encode_us":                 perUnit(sr.encodeUs, sr.encoded),
		"fleet.codec.state_bytes":               perUnit(sr.stateBytes, sr.encoded),
	}

	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{values[m.name], m.unit}
	}
	f, err := os.Create(base + ".layers.txt")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: layer table: %v\n", err)
		return out
	}
	w := io.MultiWriter(f, os.Stderr)
	fmt.Fprintf(w, "traced %s seed %d: %d rounds at %.0f rounds/s\n", li.wl.name, seed, tr.stats.answered, li.wl.nominalRPS)
	rep.writeTable(w, tr.stats.answered)
	fmt.Fprintln(w)
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", m.name, out[m.name].Value, m.unit)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: layer table: %v\n", err)
	}
	return out
}
