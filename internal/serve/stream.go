package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"origin/internal/comm"
	"origin/internal/fleet"
	"origin/internal/synth"
	"origin/internal/tensor"
)

// Streaming ingest path.
//
// The HTTP/JSON classify path re-ships a full float64 IMU window per round
// and pays a fresh parse for each one. The stream path replaces both costs:
// a persistent TCP connection carries delta-quantised binary IMU frames
// (see the format comment in internal/comm/stream.go), and the server owns
// the sliding-window state — the client sends each sample once and the
// overlap between consecutive windows is reconstructed host-side from a
// per-(session, sensor) ring buffer. Completed rounds go through the same
// fleet.Manager admission (and micro-batcher) as HTTP traffic, and results
// are pushed back as binary frames on the same connection.
//
// Determinism: a connection is serviced by one goroutine, a session's rounds
// arrive in connection order, and Manager.Classify serialises per session —
// so a session's classification sequence is a pure function of its frame
// stream, which is what lets the replay tests rebuild it serially.

// Metrics is the serving-side instrumentation shared by the HTTP and stream
// fronts, rendered by GET /metrics. ParseNanos/ParseRounds measure request
// decoding only (JSON decode + input shaping, or frame decode + window
// assembly), excluding inference — the amortised-parsing claim of the
// stream protocol is gated on exactly this counter pair.
type Metrics struct {
	ParseNanos  atomic.Int64
	ParseRounds atomic.Int64

	StreamConns   atomic.Int64
	StreamFrames  atomic.Int64
	StreamBytes   atomic.Int64
	StreamRejects atomic.Int64
	StreamRounds  atomic.Int64

	// Resume-protocol counters: sessions reattached after a disconnect,
	// hello-with-token lookups that found nothing (stale/expired/unknown),
	// states parked on disconnect, and parked states dropped by TTL or cap.
	StreamResumes      atomic.Int64
	StreamResumeMisses atomic.Int64
	StreamParked       atomic.Int64
	StreamExpired      atomic.Int64
	// StreamStoreResumes counts resumes served from the shared state store
	// rather than this replica's parked cache — each one is a session that
	// migrated here from another replica (shard-map change or peer death).
	StreamStoreResumes atomic.Int64

	// Downlink instrumentation: result-frame flushes (consecutive results
	// coalesce into one write) and heartbeats emitted. Each is counted when
	// it is committed to the connection, before the write, so a peer that
	// has read a frame always finds it counted.
	StreamResultFlushes atomic.Int64
	StreamHeartbeats    atomic.Int64
}

// noteParse records the decode cost of one classify round.
func (m *Metrics) noteParse(d time.Duration) {
	m.ParseNanos.Add(d.Nanoseconds())
	m.ParseRounds.Add(1)
}

// StreamConfig assembles a StreamServer.
type StreamConfig struct {
	// Manager is the fleet session service (required).
	Manager *fleet.Manager
	// Metrics receives stream/parse instrumentation (nil allocates a private
	// one; share one instance with the HTTP Server so /metrics covers both
	// fronts).
	Metrics *Metrics
	// RoundTimeout bounds one classify round end to end (default 10s).
	RoundTimeout time.Duration
	// IdleTimeout closes connections with no inbound frame for this long
	// (default 5m) so dead wearables do not pin session state forever. The
	// server also writes a heartbeat every IdleTimeout/3, so a half-open
	// connection dies from the failed write instead of lingering.
	IdleTimeout time.Duration
	// ResumeTTL bounds how long a disconnected session's window-assembly
	// state stays parked awaiting a resume (default 2m; negative disables
	// resume entirely — disconnects discard state as before).
	ResumeTTL time.Duration
	// ResumeCap bounds the number of parked states (default 4096); beyond
	// it the oldest parked state is dropped.
	ResumeCap int
	// Now overrides the clock for the resume cache (tests only).
	Now func() time.Time
}

// StreamServer owns the persistent-connection binary ingest front. Serve
// accepts connections until Close; each connection is handled by one
// goroutine end to end.
type StreamServer struct {
	cfg    StreamConfig
	states *resumeCache
	closed atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewStreamServer builds a stream server over a manager.
func NewStreamServer(cfg StreamConfig) *StreamServer {
	if cfg.Manager == nil {
		panic("serve: StreamConfig.Manager is required")
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.ResumeTTL == 0 {
		cfg.ResumeTTL = 2 * time.Minute
	}
	if cfg.ResumeCap <= 0 {
		cfg.ResumeCap = 4096
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &StreamServer{
		cfg:    cfg,
		states: newResumeCache(cfg.ResumeTTL, cfg.ResumeCap, cfg.Metrics, cfg.Now),
		conns:  map[net.Conn]struct{}{},
	}
}

// ParkedSessions reports the stream states currently parked awaiting resume.
func (s *StreamServer) ParkedSessions() int { return s.states.parkedCount() }

// Serve accepts stream connections on ln until Close. It returns nil after
// Close, or the first accept error otherwise.
func (s *StreamServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting connections and closes the live ones, then waits
// for their handlers to return.
func (s *StreamServer) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// streamAbort carries a protocol violation out of the per-frame handlers to
// the connection loop, which reports it as an error frame and closes.
type streamAbort struct {
	code int
	msg  string
}

func (e *streamAbort) Error() string { return e.msg }

// connWriter serializes writes to one connection: the handler's results and
// acks share the socket with the heartbeat goroutine.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

// write sends b, first adding one to sent (nil = uncounted) under the
// write lock.
func (w *connWriter) write(b []byte, timeout time.Duration, sent *atomic.Int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if sent != nil {
		sent.Add(1)
	}
	_ = w.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := w.conn.Write(b)
	return err
}

// streamWriteTimeout bounds data writes (acks, results); rejects and
// heartbeats use the shorter streamCloseTimeout, since a peer that cannot
// drain a 7-byte frame promptly is as good as gone.
const (
	streamWriteTimeout = 10 * time.Second
	streamCloseTimeout = 2 * time.Second

	// streamFlushBytes force-flushes pending result frames even while more
	// uplink frames are buffered, bounding the coalescing window.
	streamFlushBytes = 8 << 10
)

// sanitizeID length-caps and strips non-printable bytes from an untrusted
// wire string before it is echoed into error frames or log lines: a hostile
// session id must not smuggle newlines or terminal control bytes.
func sanitizeID(s string) string {
	const maxID = 64
	truncated := false
	if len(s) > maxID {
		s, truncated = s[:maxID], true
	}
	b := []byte(s)
	for i, c := range b {
		if c < 0x20 || c > 0x7e {
			b[i] = '?'
		}
	}
	if truncated {
		b = append(b, "..."...)
	}
	return string(b)
}

// handle services one connection: preamble, hello/hello-ack, then the frame
// loop. On a network-level failure the session's assembly state is parked
// for resume; on a protocol violation it is discarded — the state is torn
// and a resume would classify from a corrupt signal.
func (s *StreamServer) handle(conn net.Conn) {
	defer conn.Close()
	s.cfg.Metrics.StreamConns.Add(1)
	w := &connWriter{conn: conn}
	br := bufio.NewReaderSize(conn, 32<<10)

	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != comm.StreamMagic {
		s.reject(w, comm.StreamErrProtocol, "bad stream preamble")
		return
	}
	frame, err := comm.ReadFrame(br)
	if err != nil || frame.Type != comm.FrameHello {
		s.reject(w, comm.StreamErrProtocol, "expected hello frame")
		return
	}
	hello, err := comm.DecodeHello(frame.Payload)
	if err != nil {
		s.reject(w, comm.StreamErrProtocol, err.Error())
		return
	}
	sess, err := s.cfg.Manager.Get(hello.Session)
	if err != nil {
		s.reject(w, comm.StreamErrSession, fmt.Sprintf("session %q: %v", sanitizeID(hello.Session), err))
		return
	}
	// Cross-replica resume fallback: when the client's token matches no
	// local parked state, rebuild the lineage from the shared state store (a
	// missing store, snapshot or lineage decodes to nil). Manager.Get above
	// already restored the session core if the store was ahead, so the
	// attachment and the session agree on the round counter.
	restore := func() *streamState {
		snap, _, _ := s.cfg.Manager.StoredState(hello.Session)
		rs, _ := decodeStreamAttachment(snap.Attachment, hello.Session, sess.Model().Sensors(), sess.Model().Window)
		return rs
	}
	st, resumed, err := s.states.attach(hello.Session, hello.Token, sess.Model().Sensors(), sess.Model().Window, sess.Info().Slots, conn, restore)
	if err != nil {
		s.reject(w, comm.StreamErrResume, err.Error())
		return
	}
	// From here on the state must be handed back exactly once; park is
	// flipped off on the paths where it is torn.
	park := true
	defer func() { s.states.release(st, park) }()

	// Persist the lineage (token included) before the ack hands the token to
	// the client: if this replica dies immediately after the ack, the token
	// must already be in the store or the client's resume would miss
	// fleet-wide. One write per (re)connect, not per frame; a no-op without
	// a store.
	if err := s.cfg.Manager.PersistSession(hello.Session, encodeStreamAttachment(st)); err != nil {
		park = false
		s.reject(w, comm.StreamErrInternal, "session state persist failed")
		return
	}

	ack := comm.HelloAck{
		Resumed:  resumed,
		Token:    st.token,
		NextSlot: sess.Info().Slots,
		NextSeqs: st.asm.NextSeqs(),
	}
	if st.hasLast {
		ack.HasLast, ack.LastClass = true, st.lastClass
	}
	ackBytes, err := comm.EncodeHelloAck(nil, ack)
	if err != nil {
		park = false
		s.reject(w, comm.StreamErrInternal, "hello-ack encode failed")
		return
	}
	if err := w.write(ackBytes, streamWriteTimeout, nil); err != nil {
		return
	}

	// Heartbeats at IdleTimeout/3: three missed beats fit inside the peer's
	// own idle window, and a half-open connection dies here from the failed
	// write instead of pinning the handler until the read deadline.
	hbStop := make(chan struct{})
	defer close(hbStop)
	if hb, err := comm.EncodeHeartbeat(nil); err == nil {
		go func() {
			t := time.NewTicker(s.cfg.IdleTimeout / 3)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					if err := w.write(hb, streamCloseTimeout, &s.cfg.Metrics.StreamHeartbeats); err != nil {
						conn.Close()
						return
					}
				}
			}
		}()
	}

	var pending []byte           // encoded result frames awaiting one flush
	var roundParse time.Duration // decode+assembly cost of the round so far
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := w.write(pending, streamWriteTimeout, &s.cfg.Metrics.StreamResultFlushes); err != nil {
			return err
		}
		pending = pending[:0]
		return nil
	}
	for {
		// Consecutive results coalesce while more uplink frames are already
		// buffered; flush before a read that would block.
		if len(pending) > 0 && br.Buffered() == 0 {
			if err := flush(); err != nil {
				return
			}
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		// The blocking read sits outside the parse clock: parse time is the
		// CPU cost of turning delivered bytes into classify inputs, not the
		// closed-loop client's think time.
		frame, err := comm.ReadFrame(br)
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				// A CRC mismatch is corruption, not disconnection: the frame
				// boundary is lost, so the lineage cannot be resumed.
				park = false
				s.reject(w, comm.StreamErrProtocol, err.Error())
			}
			return
		}
		parseStart := time.Now()
		s.cfg.Metrics.StreamFrames.Add(1)
		s.cfg.Metrics.StreamBytes.Add(int64(len(frame.Payload) + comm.StreamEnvelopeOverhead))
		switch frame.Type {
		case comm.FrameHeartbeat:
			continue
		case comm.FrameIMU:
			imu, err := comm.DecodeIMU(frame.Payload)
			if err != nil {
				park = false
				s.reject(w, comm.StreamErrProtocol, err.Error())
				return
			}
			endRound, err := st.asm.Ingest(imu)
			roundParse += time.Since(parseStart)
			if err != nil {
				park = false
				s.reject(w, comm.StreamErrProtocol, err.Error())
				return
			}
			if !endRound {
				continue
			}
			inputs := st.asm.TakeRound()
			s.cfg.Metrics.noteParse(roundParse)
			roundParse = 0
			// With a store, Manager.Classify writes the round's snapshot
			// (session core plus this lineage) before it returns: once the
			// client sees slot k, the store can serve slot k+1 — the
			// crash-recovery contract the shard drill gates on.
			res, err := s.classify(hello.Session, inputs, func(res fleet.ClassifyResult) []byte {
				st.lastSlot, st.lastClass, st.hasLast = res.Slot, res.Class, true
				return encodeStreamAttachment(st)
			})
			if err != nil {
				park = false
				var abort *streamAbort
				if errors.As(err, &abort) {
					s.reject(w, abort.code, abort.msg)
				} else {
					s.reject(w, comm.StreamErrInternal, err.Error())
				}
				return
			}
			// Record the result before attempting the push (the snapshot's
			// attachment already has it): if the write fails, the parked
			// state carries it to the resume hello-ack.
			st.lastSlot, st.lastClass, st.hasLast = res.Slot, res.Class, true
			s.cfg.Metrics.StreamRounds.Add(1)
			pending, err = comm.EncodeStreamResult(pending, comm.StreamResult{Slot: res.Slot, Class: res.Class})
			if err != nil {
				park = false
				return
			}
			if len(pending) >= streamFlushBytes {
				if err := flush(); err != nil {
					return
				}
			}
		default:
			park = false
			s.reject(w, comm.StreamErrProtocol, fmt.Sprintf("unexpected frame type %d", frame.Type))
			return
		}
	}
}

// classify routes one assembled round through the manager, absorbing
// transient saturation: a persistent stream must deliver every round of its
// session in order, so shed rounds are retried with backoff rather than
// surfaced (the HTTP client does the identical retry from its side).
func (s *StreamServer) classify(session string, inputs []fleet.SensorInput, attach func(fleet.ClassifyResult) []byte) (fleet.ClassifyResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RoundTimeout)
	defer cancel()
	for attempt := 0; ; attempt++ {
		res, err := s.cfg.Manager.Classify(ctx, session, inputs, attach)
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, fleet.ErrSaturated):
			s.cfg.Metrics.StreamRejects.Add(1)
			select {
			case <-ctx.Done():
				return fleet.ClassifyResult{}, &streamAbort{comm.StreamErrSaturated, "round shed past deadline"}
			case <-time.After(time.Duration(1+attempt) * 2 * time.Millisecond):
			}
		case errors.Is(err, fleet.ErrNotFound):
			return fleet.ClassifyResult{}, &streamAbort{comm.StreamErrSession, err.Error()}
		default:
			return fleet.ClassifyResult{}, err
		}
	}
}

// reject best-effort pushes an error frame before the connection drops, so
// clients can distinguish protocol mistakes from network failures. Callers
// must sanitize any client-supplied substring (see sanitizeID) before it
// lands in msg; the whole-message cap here is only the last line of defense.
func (s *StreamServer) reject(w *connWriter, code int, msg string) {
	s.cfg.Metrics.StreamRejects.Add(1)
	if len(msg) > 256 {
		msg = msg[:256]
	}
	out, err := comm.EncodeStreamError(nil, comm.StreamError{Code: code, Msg: msg})
	if err != nil {
		return
	}
	_ = w.write(out, streamCloseTimeout, nil)
}

// StreamAssembler reconstructs sliding windows from one connection's IMU
// frames: per-sensor ring buffers of the last Window samples plus the
// dup/reorder discipline of the frame sequence numbers. It is the exact
// state machine the stream server runs per connection, exported so serial
// replay tests can rebuild a session's rounds from the same frame bytes.
//
// Sequence discipline (mirroring the duplicate-sensor fix at the session
// layer): frames must arrive with consecutive per-sensor sequence numbers.
// A re-delivered frame (seq ≤ last seen) is dropped — including its
// end-of-round flag, so a duplicated frame can never classify twice. A gap
// (seq > last+1) is rejected: samples are missing, so every later window
// of that sensor would silently be built from a torn signal.
type StreamAssembler struct {
	window  int
	sensors []streamSensor
	// round is the reporting order of sensors with fresh samples since the
	// last TakeRound; pending counts frames ingested since then.
	round   []int
	inRound []bool
}

type streamSensor struct {
	nextSeq int
	filled  int
	ring    []float64 // window samples per channel, channel-major, oldest first
}

// NewStreamAssembler builds an assembler for a model geometry.
func NewStreamAssembler(sensors, window int) *StreamAssembler {
	if sensors <= 0 || window <= 0 {
		panic("serve: invalid stream assembler geometry")
	}
	return &StreamAssembler{
		window:  window,
		sensors: make([]streamSensor, sensors),
		inRound: make([]bool, sensors),
	}
}

// Ingest feeds one decoded IMU frame into the assembler. It returns whether
// a round is now complete (the frame carried the end-of-round flag and was
// not a duplicate). Duplicate frames return (false, nil); malformed or
// gapped frames return an error — the receiver must drop the connection,
// never classify on a torn signal.
func (a *StreamAssembler) Ingest(f comm.IMUFrame) (endRound bool, err error) {
	if f.Sensor < 0 || f.Sensor >= len(a.sensors) {
		return false, fmt.Errorf("stream: frame from unknown sensor %d (have %d)", f.Sensor, len(a.sensors))
	}
	if len(f.Samples) != synth.Channels {
		return false, fmt.Errorf("stream: frame has %d channels, want %d", len(f.Samples), synth.Channels)
	}
	st := &a.sensors[f.Sensor]
	if f.Seq < st.nextSeq {
		// Radio-level duplicate: the samples (and any end-of-round flag)
		// were already ingested. Dropping the copy is what keeps a
		// duplicated frame from double-classifying a round.
		return false, nil
	}
	if f.Seq > st.nextSeq {
		return false, fmt.Errorf("stream: sensor %d frame gap: got seq %d, want %d", f.Sensor, f.Seq, st.nextSeq)
	}
	n := len(f.Samples[0])
	if st.filled == 0 && n < a.window {
		return false, fmt.Errorf("stream: sensor %d first frame carries %d samples, want at least the window (%d)", f.Sensor, n, a.window)
	}
	st.nextSeq++
	if st.ring == nil {
		st.ring = make([]float64, synth.Channels*a.window)
	}
	for c, row := range f.Samples {
		dst := st.ring[c*a.window : (c+1)*a.window]
		if n >= a.window {
			copy(dst, row[n-a.window:])
		} else {
			copy(dst, dst[n:])
			copy(dst[a.window-n:], row)
		}
	}
	if st.filled < a.window {
		st.filled += n
		if st.filled > a.window {
			st.filled = a.window
		}
	}
	if !a.inRound[f.Sensor] {
		a.inRound[f.Sensor] = true
		a.round = append(a.round, f.Sensor)
	}
	return f.EndRound, nil
}

// NextSeqs returns, per sensor, the next frame sequence number the
// assembler expects — the per-sensor acks a hello-ack carries, telling a
// resuming client which buffered frames are already ingested.
func (a *StreamAssembler) NextSeqs() []int {
	seqs := make([]int, len(a.sensors))
	for i := range a.sensors {
		seqs[i] = a.sensors[i].nextSeq
	}
	return seqs
}

// TakeRound returns the classify inputs of the completed round — one
// assembled window per sensor that reported since the last round, in
// first-report order — and resets the round state. The windows are copies;
// later frames do not mutate them.
func (a *StreamAssembler) TakeRound() []fleet.SensorInput {
	inputs := make([]fleet.SensorInput, 0, len(a.round))
	for _, sensor := range a.round {
		st := &a.sensors[sensor]
		w := tensor.New(synth.Channels, a.window)
		copy(w.Data(), st.ring)
		inputs = append(inputs, fleet.SensorInput{Sensor: sensor, Window: w})
		a.inRound[sensor] = false
	}
	a.round = a.round[:0]
	return inputs
}
