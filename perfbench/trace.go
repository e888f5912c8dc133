package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing records spans from the benchmark's own code around calls into the
// program's public seams: an http.Handler around *serve.Server, a
// net.Listener under StreamServer.Serve, and a StateStore passed as
// fleet.Config.State. The generator's rounds are the root spans. Spans stay in
// memory and are written out when the run ends.

// span is one timed call into a layer. key names what the call belongs to:
// a session id (handler and store calls) or "conn-N" for the N-th accepted
// stream connection. Times are offsets from the traced phase's start.
type span struct {
	name       string
	key        string
	start, end time.Duration
}

// recorder collects spans while on. Off, every wrapper is a pass-through
// that costs one atomic load.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	base  time.Time
	spans []span
}

// start clears the recorder and turns it on with offsets from base.
func (r *recorder) start(base time.Time) {
	r.mu.Lock()
	r.base, r.spans = base, r.spans[:0]
	r.mu.Unlock()
	r.on.Store(true)
}

// stop turns recording off and returns the spans.
func (r *recorder) stop() []span {
	r.on.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// add records one span and reports whether the recorder was on. A nil
// recorder records nothing.
func (r *recorder) add(name, key string, t0, t1 time.Time) bool {
	if r == nil || !r.on.Load() {
		return false
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, key: key, start: t0.Sub(r.base), end: t1.Sub(r.base)})
	r.mu.Unlock()
	return true
}

// tracedHandler times every classify request through the HTTP front.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	id, ok := strings.CutPrefix(r.URL.Path, "/v1/sessions/")
	if id, ok = strings.CutSuffix(id, "/classify"); ok {
		h.rec.add("serve.http.handler", id, t0, time.Now())
	}
}

// tracedListener numbers accepted connections and wraps each so its reads
// and writes are timed and counted.
type tracedListener struct {
	net.Listener
	rec      *recorder
	accepted atomic.Int64
	stats    *connStats
}

// connStats counts the stream front's socket calls while the recorder is on.
type connStats struct {
	reads, writes, downlinkBytes atomic.Int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.accepted.Add(1) - 1
	return &tracedConn{Conn: c, key: fmt.Sprintf("conn-%d", n), rec: l.rec, stats: l.stats}, nil
}

type tracedConn struct {
	net.Conn
	key   string
	rec   *recorder
	stats *connStats
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	if c.rec.add("serve.stream.conn.read", c.key, t0, time.Now()) {
		c.stats.reads.Add(1)
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	if c.rec.add("serve.stream.conn.write", c.key, t0, time.Now()) {
		c.stats.writes.Add(1)
		c.stats.downlinkBytes.Add(int64(n))
	}
	return n, err
}

// tracedSpan is a span linked to its round, with its parent and self time.
// The round itself is a "generator.round" root span with parent -1.
type tracedSpan struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Wearer int     `json:"wearer"`
	Round  int     `json:"round"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

// layerRow aggregates one span name over the traced phase.
type layerRow struct {
	name     string
	count    int
	durUs    []float64 // sorted span durations
	selfUs   float64   // total self time
	coverUs  float64   // total round time covered by this layer
	perRound float64
}

// traceReport is the analysed trace of one phase.
type traceReport struct {
	spans       []tracedSpan
	rows        []*layerRow
	roundUs     float64 // total client-observed round time (sent to answer)
	unaccounted float64 // share of round time covered by no layer span
	// groupCoverUs is the round time covered by each layer, the span name
	// without its last part ("fleet.store" for puts and loads together).
	groupCoverUs map[string]float64
}

// layerOf is a span name without its last part.
func layerOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// analyzeTrace links spans to the generator's rounds and computes self times.
// A span belongs to the round of its wearer whose [sent, done] interval it
// overlaps; its parent is the innermost span of the same round that encloses
// it, else the round itself. Coverage is clipped to the round interval, so a
// blocking read that started while the connection idled only counts from
// when the round was sent.
func analyzeTrace(rounds []*round, raw []span, wearerOf func(key string) (int, bool)) traceReport {
	byWearer := map[int][]*round{}
	for _, r := range rounds {
		if r.answered() {
			byWearer[r.wearer] = append(byWearer[r.wearer], r)
		}
	}
	for _, rs := range byWearer {
		sort.Slice(rs, func(i, j int) bool { return rs[i].sent < rs[j].sent })
	}
	type linked struct {
		span
		wearer int
		r      *round
	}
	perRound := map[*round][]int{}
	var ls []linked
	for _, s := range raw {
		w, ok := wearerOf(s.key)
		if !ok {
			continue
		}
		rs := byWearer[w]
		// First round whose answer came at or after the span's start.
		i := sort.Search(len(rs), func(i int) bool { return rs[i].done >= s.start })
		if i == len(rs) || rs[i].sent > s.end {
			continue // between rounds: idle time, not part of any round
		}
		perRound[rs[i]] = append(perRound[rs[i]], len(ls))
		ls = append(ls, linked{span: s, wearer: w, r: rs[i]})
	}

	rep := traceReport{groupCoverUs: map[string]float64{}}
	rows := map[string]*layerRow{}
	row := func(name string) *layerRow {
		if rows[name] == nil {
			rows[name] = &layerRow{name: name}
		}
		return rows[name]
	}
	// Root spans (the generator's rounds) take ids 0..roots-1; layer span i
	// takes id roots+i.
	var out []tracedSpan
	for _, r := range rounds {
		if r.answered() {
			out = append(out, tracedSpan{ID: len(out), Name: "generator.round", Wearer: r.wearer, Round: r.k,
				Parent: -1, Start: float64(r.sent) / 1e3, End: float64(r.done) / 1e3, Self: float64(r.done-r.sent) / 1e3})
		}
	}
	roots := len(out)
	out = append(out, make([]tracedSpan, len(ls))...)
	children := make([][]interval, len(out))
	covered := 0.0
	root := 0
	for _, r := range rounds {
		if !r.answered() {
			continue
		}
		lo, hi := r.sent, r.done
		rep.roundUs += float64(hi-lo) / 1e3
		idx := perRound[r]
		var all []interval
		byName := map[string][]interval{}
		byLayer := map[string][]interval{}
		for _, i := range idx {
			iv := clip(ls[i].start, ls[i].end, lo, hi)
			all = append(all, iv)
			byName[ls[i].name] = append(byName[ls[i].name], iv)
			byLayer[layerOf(ls[i].name)] = append(byLayer[layerOf(ls[i].name)], iv)
		}
		covered += unionUs(all)
		children[root] = all
		out[root].Self -= unionUs(all)
		for name, ivs := range byName {
			row(name).coverUs += unionUs(ivs)
		}
		for layer, ivs := range byLayer {
			rep.groupCoverUs[layer] += unionUs(ivs)
		}
		for _, i := range idx {
			s := ls[i]
			parent := -1
			for _, j := range idx {
				p := ls[j]
				if j != i && p.start <= s.start && p.end >= s.end && (p.start != s.start || p.end != s.end || j < i) {
					if parent < 0 || ls[parent].end-ls[parent].start > p.end-p.start {
						parent = j
					}
				}
			}
			id := roots + i
			pid := root
			if parent >= 0 {
				pid = roots + parent
				children[pid] = append(children[pid], interval{s.start, s.end})
			}
			out[id] = tracedSpan{ID: id, Name: s.name, Wearer: s.wearer, Round: r.k, Parent: pid,
				Start: float64(s.start) / 1e3, End: float64(s.end) / 1e3}
		}
		root++
	}
	// Self time: duration minus the part covered by direct children.
	for i := range ls {
		id := roots + i
		d := float64(ls[i].end-ls[i].start) / 1e3
		out[id].Self = d - unionUs(children[id])
		rw := row(out[id].Name)
		rw.count++
		rw.durUs = append(rw.durUs, d)
		rw.selfUs += out[id].Self
	}
	answered := 0
	for _, r := range rounds {
		if r.answered() {
			answered++
		}
	}
	for _, rw := range rows {
		sort.Float64s(rw.durUs)
		if answered > 0 {
			rw.perRound = float64(rw.count) / float64(answered)
		}
		rep.rows = append(rep.rows, rw)
	}
	sort.Slice(rep.rows, func(i, j int) bool { return rep.rows[i].name < rep.rows[j].name })
	if rep.roundUs > 0 {
		rep.unaccounted = 1 - covered/rep.roundUs
	}
	rep.spans = out
	return rep
}

type interval struct{ lo, hi time.Duration }

func clip(s, e, lo, hi time.Duration) interval {
	return interval{max(s, lo), min(e, hi)}
}

// unionUs is the total length, in microseconds, covered by the intervals.
func unionUs(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	total := time.Duration(0)
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			if cur.hi > cur.lo {
				total += cur.hi - cur.lo
			}
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	if cur.hi > cur.lo {
		total += cur.hi - cur.lo
	}
	return float64(total) / 1e3
}

// rowFor returns the named layer row, or an empty one.
func (t *traceReport) rowFor(name string) *layerRow {
	for _, r := range t.rows {
		if r.name == name {
			return r
		}
	}
	return &layerRow{name: name}
}

// writeTable prints the per-layer table: spans per round, mean and p99
// duration, self time per round and the share of round time the layer
// covers.
func (t *traceReport) writeTable(w io.Writer, rounds int) {
	fmt.Fprintf(w, "%-26s %10s %9s %9s %9s %12s %10s\n", "layer", "spans", "per_round", "mean_us", "p99_us", "self_us/rnd", "round_share")
	for _, r := range t.rows {
		p99 := percentileOrMax(r.durUs, 0.99)
		self := 0.0
		if rounds > 0 {
			self = r.selfUs / float64(rounds)
		}
		share := 0.0
		if t.roundUs > 0 {
			share = r.coverUs / t.roundUs
		}
		fmt.Fprintf(w, "%-26s %10d %9.3f %9.2f %9.2f %12.2f %10.3f\n", r.name, r.count, r.perRound, mean(r.durUs), p99, self, share)
	}
	fmt.Fprintf(w, "%-26s %10s %9s %9s %9s %12s %10.3f\n", "(unaccounted)", "", "", "", "", "", t.unaccounted)
}

// percentileOrMax is tailPercentile for per-layer figures: a sample too
// small for it reports its maximum, and an empty one 0.
func percentileOrMax(sorted []float64, q float64) float64 {
	if v, _, ok := tailPercentile(sorted, q); ok {
		return v
	}
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []tracedSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
