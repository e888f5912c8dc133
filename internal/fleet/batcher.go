package fleet

import (
	"sync"
	"time"

	"origin/internal/synth"
	"origin/internal/tensor"
)

// Micro-batching for server-side window inference.
//
// Scoring a raw IMU window is a pure function of (model, sensor, window):
// it reads only the shared immutable weights and touches no session state.
// That makes it the one stage of a classify round that can be coalesced
// across sessions without breaking the determinism contract — provided the
// batched kernels are bit-identical to the single-window path, which
// dnn.PredictBatch guarantees (see internal/dnn/batch.go). Requests for the
// same (model, sensor) pair that arrive together are scored in one
// ForwardBatch over the blocked GEMM kernels and demultiplexed back to their
// waiting sessions.
//
// Batching is opportunistic by default: a batcher drains whatever is already
// queued (up to the batch cap) and flushes immediately, so an idle server
// adds no latency — batches only form when concurrent load has already
// queued windows. An optional hold window (Config.BatchHold) trades p50
// latency for larger batches under bursty load.

// windowScore is the outcome of scoring one raw window.
type windowScore struct {
	class int
	conf  float64
}

// scorer resolves the raw-window inputs of one classify round to votes.
// sensors[i] is the voter index of windows[i]; every window is non-nil and
// already validated against the model geometry.
type scorer interface {
	scoreWindows(sensors []int, windows []*tensor.Tensor) []windowScore
}

// directScorer is the unbatched path: borrow one pooled net set and score
// each window as a one-window batch. Standalone sessions (the facade, replay
// tests) and managers with batching disabled use it.
type directScorer struct {
	m *Model
}

func (d directScorer) scoreWindows(sensors []int, windows []*tensor.Tensor) []windowScore {
	out := make([]windowScore, len(sensors))
	nets := d.m.acquireNets()
	defer d.m.releaseNets(nets)
	for i, w := range windows {
		predictBatch(nets[sensors[i]], w.Reshape(1, synth.Channels, d.m.Window), out[i:i+1])
	}
	return out
}

// predictBatch is the one scoring kernel: it scores a (n, channels, window)
// batch on net in one forward pass into out, materialising every score
// before it returns (the probabilities alias the net's scratch).
func predictBatch(net predictor, batch *tensor.Tensor, out []windowScore) {
	classes, probs := net.PredictBatch(batch)
	for i := range out {
		out[i] = windowScore{class: classes[i], conf: probs.Row(i).Variance()}
	}
}

// scoreJob is one window handed to a sensor's batcher.
type scoreJob struct {
	idx    int
	window *tensor.Tensor
	reply  chan<- scoredJob
}

// scoredJob carries a result back to the round that submitted it.
type scoredJob struct {
	idx   int
	score windowScore
}

// batcherMetrics is the tiny atomically-updated slice of Manager metrics the
// batchers feed (nil-safe for standalone use in tests).
type batcherMetrics interface {
	noteBatch(windows int)
}

// sensorBatcher coalesces windows bound for one (model, sensor) pair.
type sensorBatcher struct {
	model    *Model
	sensor   int
	jobs     chan scoreJob
	maxBatch int
	hold     time.Duration
	metrics  batcherMetrics

	// slab is the reusable batch input buffer and scores the reusable
	// per-flush result buffer; both live on the batcher goroutine only.
	slab   []float64
	scores []windowScore
}

func (b *sensorBatcher) run(done *sync.WaitGroup) {
	defer done.Done()
	pending := make([]scoreJob, 0, b.maxBatch)
	for {
		j, ok := <-b.jobs
		if !ok {
			return
		}
		pending = append(pending[:0], j)
		open := b.collect(&pending)
		b.flush(pending)
		if !open {
			return
		}
	}
}

// collect gathers more queued jobs into pending, up to the batch cap. With
// no hold it never waits: it drains what is already there and returns. It
// reports whether the jobs channel is still open.
func (b *sensorBatcher) collect(pending *[]scoreJob) bool {
	if b.hold <= 0 {
		for len(*pending) < b.maxBatch {
			select {
			case j, ok := <-b.jobs:
				if !ok {
					return false
				}
				*pending = append(*pending, j)
			default:
				return true
			}
		}
		return true
	}
	timer := time.NewTimer(b.hold)
	defer timer.Stop()
	for len(*pending) < b.maxBatch {
		select {
		case j, ok := <-b.jobs:
			if !ok {
				return false
			}
			*pending = append(*pending, j)
		case <-timer.C:
			return true
		}
	}
	return true
}

// flush scores pending in one batched forward pass and demultiplexes the
// results to the rounds that submitted them.
func (b *sensorBatcher) flush(pending []scoreJob) {
	if len(pending) == 0 {
		return
	}
	n := len(pending)
	wlen := synth.Channels * b.model.Window
	if cap(b.slab) < n*wlen {
		b.slab = make([]float64, n*wlen)
	}
	slab := b.slab[:n*wlen]
	for i, j := range pending {
		copy(slab[i*wlen:(i+1)*wlen], j.window.Data())
	}
	input := tensor.FromSlice(slab, n, synth.Channels, b.model.Window)

	// Release the borrowed nets before the demux: reply sends can block on
	// slow consumers, and a pooled net held across them would starve the
	// pool under load.
	if cap(b.scores) < n {
		b.scores = make([]windowScore, n)
	}
	scores := b.scores[:n]
	nets := b.model.acquireNets()
	predictBatch(nets[b.sensor], input, scores)
	b.model.releaseNets(nets)
	for i, j := range pending {
		j.reply <- scoredJob{idx: j.idx, score: scores[i]}
	}
	if b.metrics != nil {
		b.metrics.noteBatch(n)
	}
}

// batchScorer fans one round's windows out to the per-sensor batchers and
// reassembles the results in request order.
type batchScorer struct {
	sensors []*sensorBatcher
}

func (b *batchScorer) scoreWindows(sensors []int, windows []*tensor.Tensor) []windowScore {
	out := make([]windowScore, len(sensors))
	reply := make(chan scoredJob, len(sensors))
	for i, sensor := range sensors {
		b.sensors[sensor].jobs <- scoreJob{idx: i, window: windows[i], reply: reply}
	}
	for range sensors {
		r := <-reply
		out[r.idx] = r.score
	}
	return out
}

// modelBatchers owns the batcher set of every model a manager serves.
type modelBatchers struct {
	maxBatch int
	hold     time.Duration
	metrics  batcherMetrics

	mu      sync.Mutex
	closed  bool
	scorers map[*Model]*batchScorer
	wg      sync.WaitGroup
}

func newModelBatchers(maxBatch int, hold time.Duration, metrics batcherMetrics) *modelBatchers {
	return &modelBatchers{
		maxBatch: maxBatch,
		hold:     hold,
		metrics:  metrics,
		scorers:  map[*Model]*batchScorer{},
	}
}

// scorerFor returns (starting if needed) the batch scorer of a model, or nil
// after close — callers then fall back to the direct scorer.
func (mb *modelBatchers) scorerFor(m *Model) scorer {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return nil
	}
	if sc, ok := mb.scorers[m]; ok {
		return sc
	}
	sc := &batchScorer{sensors: make([]*sensorBatcher, m.Sensors())}
	for i := range sc.sensors {
		b := &sensorBatcher{
			model:    m,
			sensor:   i,
			jobs:     make(chan scoreJob, 4*mb.maxBatch),
			maxBatch: mb.maxBatch,
			hold:     mb.hold,
			metrics:  mb.metrics,
		}
		sc.sensors[i] = b
		mb.wg.Add(1)
		go b.run(&mb.wg)
	}
	mb.scorers[m] = sc
	return sc
}

// close stops every batcher after in-flight work has drained. The caller
// (Manager.Close) must have already waited out every admitted round: only
// running rounds submit to batchers, so at this point no new jobs can arrive.
func (mb *modelBatchers) close() {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		mb.wg.Wait()
		return
	}
	mb.closed = true
	for _, sc := range mb.scorers {
		for _, b := range sc.sensors {
			close(b.jobs)
		}
	}
	mb.mu.Unlock()
	mb.wg.Wait()
}

var _ scorer = directScorer{}
var _ scorer = (*batchScorer)(nil)
