package loadgen

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"origin/internal/comm"
	"origin/internal/synth"
)

// DefaultStreamHop is the steady-state sliding-window hop: how many new
// samples per channel a stream frame ships once the sensor's first frame has
// filled the window. Half-window overlap keeps activity-transition
// contamination to a round or two while still re-sending nothing.
const DefaultStreamHop = 32

// FrameSource generates one user's deterministic stream-mode frame
// sequence. It is the binary-uplink twin of Stream: frame k depends only on
// (profile, seed, user index, k), and the encoded bytes are what both the
// live client ships and the serial replay re-derives — the determinism
// contract compares classification sequences produced from identical frame
// bytes on both paths.
//
// Unlike Stream (whose windows are i.i.d. draws), a FrameSource owns one
// synth.SensorStream per sensor, so consecutive frames of a sensor join
// contiguously and the server-side sliding-window assembly sees a real
// continuous signal.
type FrameSource struct {
	timeline *synth.Timeline
	cfg      *Config
	sensors  *SensorFrames
	step     int
}

// SensorFrames is one wearer's per-sensor stream progress (signal source,
// next frame sequence number, priming frame sent) and the one builder of
// stream rounds: FrameSource and the scenario's lineages both use Round.
type SensorFrames struct {
	// Streams are the per-location signal sources. Callers may draw window
	// payloads from them or drift their wearer between rounds.
	Streams [synth.NumLocations]*synth.SensorStream
	seqs    [synth.NumLocations]int
	primed  [synth.NumLocations]bool
}

// NewSensorFrames seeds one SensorStream per location for a wearer.
// seed+3+s keeps the per-sensor RNG streams disjoint from the timeline
// (seed), generator (seed+1) and vote (seed+2) streams.
func NewSensorFrames(profile *synth.Profile, u *synth.User, seed int64) *SensorFrames {
	f := &SensorFrames{}
	for s := range f.Streams {
		f.Streams[s] = synth.NewSensorStream(profile, u, synth.Location(s), seed+3+int64(s))
	}
	return f
}

// Round encodes round k's frames in send order: n reporters in the rotation
// (k·n + j) mod NumLocations, each shipping hop new samples of the truth
// activity — a full window on a sensor's first frame, since the server has
// no history to slide over yet. The last frame carries end-of-round.
func (f *SensorFrames) Round(k, n, hop, truth int) ([]EncodedFrame, error) {
	frames := make([]EncodedFrame, 0, n)
	for j := 0; j < n; j++ {
		sensorID := (k*n + j) % synth.NumLocations
		count := hop
		if !f.primed[sensorID] {
			count = windowLen
			f.primed[sensorID] = true
		}
		samples := f.Streams[sensorID].Next(truth, count, nil)
		rows := make([][]float64, synth.Channels)
		for c := range rows {
			rows[c] = samples[c*count : (c+1)*count]
		}
		seq := f.seqs[sensorID]
		enc, err := comm.EncodeIMU(nil, comm.IMUFrame{Sensor: sensorID, Seq: seq, EndRound: j == n-1, Samples: rows})
		if err != nil {
			return nil, fmt.Errorf("loadgen: encode frame (round %d sensor %d): %w", k, sensorID, err)
		}
		frames = append(frames, EncodedFrame{Sensor: sensorID, Seq: seq, End: j == n-1, Bytes: enc})
		f.seqs[sensorID]++
	}
	return frames, nil
}

// NewFrameSource builds the i-th user's frame source. The seeding mirrors
// NewStream exactly (same timeline, same wearer id), so votes/windows/stream
// runs over the same (seed, user) grid classify the same ground-truth
// activity sequence.
func NewFrameSource(cfg *Config, profile *synth.Profile, i int) *FrameSource {
	seed := streamSeed(cfg.Seed, i)
	tl := synth.GenerateTimeline(profile, synth.TimelineConfig{
		Slots: cfg.Requests, MeanSegment: 40, MinSegment: 10, Seed: seed,
	})
	return &FrameSource{timeline: tl, cfg: cfg,
		sensors: NewSensorFrames(profile, synth.NewUser(UserID(i)), seed)}
}

// Truth returns the ground-truth activity of round k.
func (fs *FrameSource) Truth(k int) int { return fs.timeline.PerSlot[k] }

// EncodedFrame is one enveloped IMU frame plus the header fields the
// reconnect path needs: after a resume, frames whose Seq sits below the
// server's per-sensor ack are already ingested and are filtered from the
// re-send (re-sending them would also be safe — the server drops duplicates
// — but wastes uplink).
type EncodedFrame struct {
	Sensor int
	Seq    int
	End    bool
	Bytes  []byte
}

// Next returns round k's encoded (enveloped) IMU frames in send order. The
// last frame carries the end-of-round flag. Must be called sequentially —
// the sensor streams advance with each round.
func (fs *FrameSource) Next(k int) ([]EncodedFrame, error) {
	if k != fs.step {
		panic(fmt.Sprintf("loadgen: frame source stepped out of order: got %d want %d", k, fs.step))
	}
	fs.step++
	return fs.sensors.Round(k, fs.cfg.SensorsPerRequest, fs.cfg.StreamHop, fs.timeline.PerSlot[k])
}

// Reconnect/backoff parameters: the base doubles per consecutive failure up
// to the cap, each sleep jittered by a per-user seeded factor in [0.5, 1.5)
// so a fleet of users severed by the same fault does not redial in lockstep.
const (
	defaultReconnectMax = 8
	reconnectBackoffMin = 2 * time.Millisecond
	reconnectBackoffCap = 250 * time.Millisecond
)

// StreamStats tallies one stream client's transport outcomes: uplink cost,
// reconnect/resume bookkeeping, and accumulated downtime (time from losing
// a connection to completing the next handshake).
type StreamStats struct {
	UplinkBytes      int64
	Reconnects       int
	ResumeAttempts   int
	ResumeMisses     int
	DoubleClassifies int
	Downtime         time.Duration
}

// StreamClient is one session's resumable binary-stream connection: the
// preamble + hello/hello-ack handshake (with the resume token once one is
// held), per-round frame delivery that rides out any number of mid-round
// disconnects, and seeded jittered exponential backoff. It is the client
// half of the resume protocol, shared by the loadgen stream users and the
// scenario engine so every driver exercises the identical transport path.
// Not safe for concurrent use.
type StreamClient struct {
	addr         string
	sessID       string
	label        int // wearer index, used only in error messages
	reconnectMax int
	rng          *rand.Rand // backoff jitter (disjoint from the data streams)
	stats        StreamStats

	conn  net.Conn
	br    *bufio.Reader
	token string
}

// NewStreamClient builds a client for one server-created session. label
// tags error messages (conventionally the user index), jitterSeed seeds the
// backoff jitter stream, and reconnectMax bounds consecutive failed attempts
// per (re)connect (0 = default).
func NewStreamClient(addr, sessID string, label, reconnectMax int, jitterSeed int64) *StreamClient {
	if reconnectMax <= 0 {
		reconnectMax = defaultReconnectMax
	}
	return &StreamClient{
		addr: addr, sessID: sessID, label: label, reconnectMax: reconnectMax,
		rng: rand.New(rand.NewSource(jitterSeed)),
	}
}

// Stats returns the transport tallies so far.
func (c *StreamClient) Stats() StreamStats { return c.stats }

// Close drops the connection. The server-side session stays live (and
// parkable); a later Round redials and resumes.
func (c *StreamClient) Close() { c.closeConn() }

// CycleConn is Close under its scenario name: dropping the connection
// mid-day models a user roaming between networks, and the next Round's
// reconnect exercises the park/resume path without any fault injection.
func (c *StreamClient) CycleConn() { c.closeConn() }

func (c *StreamClient) closeConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br = nil, nil
	}
}

// readDataFrame reads the next non-heartbeat frame: server heartbeats keep
// half-open connections detectable but carry no protocol state.
func readDataFrame(br *bufio.Reader) (comm.Frame, error) {
	for {
		frame, err := comm.ReadFrame(br)
		if err != nil || frame.Type != comm.FrameHeartbeat {
			return frame, err
		}
	}
}

// dialAndHello performs one connection attempt end to end: dial, preamble +
// hello (with the resume token when one is held), and the server's answer.
// transient=true means the attempt died on the network and may be retried;
// transient=false errors are protocol-level and terminal.
func (c *StreamClient) dialAndHello() (ack comm.HelloAck, transient bool, err error) {
	conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
	if err != nil {
		return comm.HelloAck{}, true, fmt.Errorf("loadgen: user %d dial stream %s: %v", c.label, c.addr, err)
	}
	hello, err := comm.EncodeHello(append([]byte(nil), comm.StreamMagic[:]...),
		comm.Hello{Version: comm.StreamVersion, Session: c.sessID, Token: c.token})
	if err != nil {
		conn.Close()
		return comm.HelloAck{}, false, fmt.Errorf("loadgen: user %d encode hello: %v", c.label, err)
	}
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return comm.HelloAck{}, true, fmt.Errorf("loadgen: user %d send hello: %v", c.label, err)
	}
	// The preamble and hello are uplink too; amortised over the run they
	// vanish, but counting them keeps the bytes column honest.
	c.stats.UplinkBytes += int64(len(hello))
	br := bufio.NewReaderSize(conn, 32<<10)
	frame, err := readDataFrame(br)
	if err != nil {
		conn.Close()
		return comm.HelloAck{}, true, fmt.Errorf("loadgen: user %d read hello-ack: %v", c.label, err)
	}
	resuming := c.token != ""
	if resuming {
		// An attempt only counts once the server answered; attempts severed
		// mid-handshake are retried, not scored.
		c.stats.ResumeAttempts++
	}
	switch frame.Type {
	case comm.FrameHelloAck:
		ack, err := comm.DecodeHelloAck(frame.Payload)
		if err != nil {
			conn.Close()
			return comm.HelloAck{}, false, fmt.Errorf("loadgen: user %d: %v", c.label, err)
		}
		if resuming && !ack.Resumed {
			conn.Close()
			return comm.HelloAck{}, false, fmt.Errorf("loadgen: user %d: server answered a resume hello with a fresh ack", c.label)
		}
		c.token = ack.Token
		c.conn, c.br = conn, br
		return ack, false, nil
	case comm.FrameError:
		conn.Close()
		se, derr := comm.DecodeStreamError(frame.Payload)
		if derr != nil {
			return comm.HelloAck{}, false, fmt.Errorf("loadgen: user %d: undecodable error frame: %v", c.label, derr)
		}
		if resuming && se.Code == comm.StreamErrResume {
			c.stats.ResumeMisses++
		}
		return comm.HelloAck{}, false, fmt.Errorf("loadgen: user %d: stream error %d: %s", c.label, se.Code, se.Msg)
	default:
		conn.Close()
		return comm.HelloAck{}, false, fmt.Errorf("loadgen: user %d: unexpected frame type %d for hello", c.label, frame.Type)
	}
}

// Connect establishes the initial stream connection. The fresh hello-ack is
// returned so the caller can check the session starts at slot 0.
func (c *StreamClient) Connect() (comm.HelloAck, error) { return c.connect(true) }

// connect establishes (or re-establishes) the stream connection with seeded
// jittered exponential backoff, bounded by reconnectMax consecutive failed
// attempts. On reconnects, time from entry to a completed handshake accrues
// as downtime; initial session setup is not an outage and never counts.
func (c *StreamClient) connect(initial bool) (comm.HelloAck, error) {
	c.closeConn()
	t0 := time.Now()
	defer func() {
		if !initial {
			c.stats.Downtime += time.Since(t0)
		}
	}()
	for attempt := 0; attempt < c.reconnectMax; attempt++ {
		if attempt > 0 {
			d := reconnectBackoffMin << (attempt - 1)
			if d > reconnectBackoffCap {
				d = reconnectBackoffCap
			}
			time.Sleep(time.Duration(float64(d) * (0.5 + c.rng.Float64())))
		}
		ack, transient, err := c.dialAndHello()
		if err == nil {
			if !initial {
				c.stats.Reconnects++
			}
			return ack, nil
		}
		if !transient {
			return comm.HelloAck{}, err
		}
	}
	return comm.HelloAck{}, fmt.Errorf("loadgen: user %d: reconnect budget exhausted (%d attempts)", c.label, c.reconnectMax)
}

// filterFrames drops the frames a resume ack already covers: the server
// ingested everything below the per-sensor next-seq watermarks before the
// disconnect.
func filterFrames(frames []EncodedFrame, nextSeqs []int) []EncodedFrame {
	out := make([]EncodedFrame, 0, len(frames))
	for _, f := range frames {
		if f.Sensor < len(nextSeqs) && f.Seq < nextSeqs[f.Sensor] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Round delivers round k's frames and returns its classification, riding out
// any number of mid-round disconnects: each reconnect resumes the session and
// the hello-ack dictates recovery — NextSlot == k+1 means the round already
// classified and only the result push was lost (the ack carries it);
// NextSlot == k means the round is still open and the un-acked frames are
// re-sent. Anything else is a protocol violation; a server that ran ahead of
// the client counts as a double classification.
func (c *StreamClient) Round(k int, frames []EncodedFrame) (int, error) {
	send := frames
	for {
		if c.conn == nil {
			ack, err := c.connect(false)
			if err != nil {
				return 0, err
			}
			switch {
			case ack.NextSlot == k+1:
				if !ack.HasLast {
					return 0, fmt.Errorf("loadgen: user %d round %d: resumed past the round with no last result", c.label, k)
				}
				return ack.LastClass, nil
			case ack.NextSlot == k:
				send = filterFrames(frames, ack.NextSeqs)
			default:
				if ack.NextSlot > k+1 {
					c.stats.DoubleClassifies++
				}
				return 0, fmt.Errorf("loadgen: user %d round %d: resume ack answers slot %d", c.label, k, ack.NextSlot)
			}
		}
		if err := c.sendFrames(send); err != nil {
			c.closeConn()
			continue
		}
		class, transient, err := c.awaitResult(k)
		if err != nil {
			if transient {
				c.closeConn()
				continue
			}
			return 0, err
		}
		return class, nil
	}
}

func (c *StreamClient) sendFrames(frames []EncodedFrame) error {
	for _, f := range frames {
		if _, err := c.conn.Write(f.Bytes); err != nil {
			return err
		}
		c.stats.UplinkBytes += int64(len(f.Bytes))
	}
	return nil
}

// awaitResult reads round k's pushed result. Network failures are transient
// (the caller reconnects); error frames and slot mismatches are terminal.
func (c *StreamClient) awaitResult(k int) (class int, transient bool, err error) {
	frame, err := readDataFrame(c.br)
	if err != nil {
		return 0, true, err
	}
	switch frame.Type {
	case comm.FrameResult:
	case comm.FrameError:
		se, derr := comm.DecodeStreamError(frame.Payload)
		if derr != nil {
			return 0, false, fmt.Errorf("loadgen: user %d round %d: undecodable error frame: %v", c.label, k, derr)
		}
		return 0, false, fmt.Errorf("loadgen: user %d round %d: stream error %d: %s", c.label, k, se.Code, se.Msg)
	default:
		return 0, false, fmt.Errorf("loadgen: user %d round %d: unexpected frame type %d", c.label, k, frame.Type)
	}
	res, err := comm.DecodeStreamResult(frame.Payload)
	if err != nil {
		return 0, false, fmt.Errorf("loadgen: user %d round %d: %v", c.label, k, err)
	}
	if res.Slot != k {
		if res.Slot > k {
			c.stats.DoubleClassifies++
		}
		return 0, false, fmt.Errorf("loadgen: user %d round %d: result answers slot %d", c.label, k, res.Slot)
	}
	return res.Class, false, nil
}

// runStreamUser is one closed-loop stream-mode user: create a session over
// HTTP, open the persistent binary connection, then for every round send the
// frames and wait for the pushed result before the next round. The server
// absorbs shed rounds internally, so unlike the HTTP loop there is no
// client-side retry of the round itself — every round classifies exactly
// once, a property the resume protocol preserves across disconnects.
//
// The result is named: the deferred stats fold must reach the returned
// value on error paths too.
func runStreamUser(cfg *Config, profile *synth.Profile, i int) (r userResult) {
	start := time.Now()
	defer func() { r.wall = time.Since(start) }()
	fail := func(err error) userResult {
		r.errs++
		r.err = err
		return r
	}
	created, err := createSession(cfg, i)
	if err != nil {
		return fail(err)
	}
	r.trace = SessionTrace{User: UserID(i), ID: created.ID}

	// seed+6 keeps the jitter stream disjoint from the timeline (seed),
	// generator (seed+1), vote (seed+2) and sensor (seed+3..5) streams.
	sc := NewStreamClient(cfg.StreamAddr, created.ID, i, cfg.ReconnectMax,
		streamSeed(cfg.Seed, i)+6)
	defer sc.Close()
	defer func() {
		st := sc.Stats()
		r.uplinkBytes += st.UplinkBytes
		r.reconnects += st.Reconnects
		r.resumeAttempts += st.ResumeAttempts
		r.resumeMisses += st.ResumeMisses
		r.doubleClassifies += st.DoubleClassifies
		r.downtime += st.Downtime
	}()
	ack, err := sc.Connect()
	if err != nil {
		return fail(err)
	}
	if ack.NextSlot != 0 {
		return fail(fmt.Errorf("loadgen: user %d: fresh session starts at slot %d", i, ack.NextSlot))
	}

	fs := NewFrameSource(cfg, profile, i)
	for k := 0; k < cfg.Requests; k++ {
		frames, err := fs.Next(k)
		if err != nil {
			return fail(err)
		}
		t0 := time.Now()
		r.sent++
		class, err := sc.Round(k, frames)
		if err != nil {
			return fail(err)
		}
		lat := time.Since(t0)
		r.ok++
		cfg.noteRound(created.ID)
		r.latencies = append(r.latencies, lat)
		r.trace.Classes = append(r.trace.Classes, class)
		if class == fs.Truth(k) {
			r.correct++
		}
	}
	return r
}

// fetchParseCounters scrapes the server's parse-cost counters from
// /metrics. A server without the counters (or an unreachable endpoint)
// yields zeros, which Run treats as "no parse column".
func fetchParseCounters(c *http.Client, baseURL string) (nanos, rounds int64) {
	resp, err := c.Get(baseURL + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := metricValue(line, "origin_serve_parse_nanos_total"); ok {
			nanos = v
		}
		if v, ok := metricValue(line, "origin_serve_parse_rounds_total"); ok {
			rounds = v
		}
	}
	return nanos, rounds
}

// metricValue parses "name value" Prometheus exposition lines.
func metricValue(line, name string) (int64, bool) {
	rest, ok := strings.CutPrefix(line, name+" ")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
