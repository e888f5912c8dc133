package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"origin/internal/fleet"
	"origin/internal/tensor"
)

// Config assembles a Server.
type Config struct {
	// Manager is the fleet session service (required).
	Manager *fleet.Manager
	// RequestTimeout bounds one classify round end to end (default 10s).
	RequestTimeout time.Duration
	// Metrics receives parse-cost instrumentation (nil allocates a private
	// one; share one instance with a StreamServer so /metrics covers both
	// fronts).
	Metrics *Metrics
}

// maxBodyBytes bounds request bodies: three raw IMU windows are ~10 KiB of
// JSON, so 8 MiB is generous headroom, not a working size.
const maxBodyBytes = 8 << 20

// Server is the HTTP front of a fleet.Manager.
type Server struct {
	cfg Config
	mux *http.ServeMux
}

// New builds the server and its routes.
func New(cfg Config) *Server {
	if cfg.Manager == nil {
		panic("serve: Config.Manager is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/classify", s.handleClassify)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a fleet error onto an HTTP status and JSON body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, fleet.ErrInvalid):
		status = http.StatusBadRequest
	case errors.Is(err, fleet.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, fleet.ErrExists):
		status = http.StatusConflict
	case errors.Is(err, fleet.ErrSaturated):
		// Shed load: tell the client to back off briefly instead of
		// letting the waiting line grow without bound.
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, fleet.ErrShutdown):
		// Draining for shutdown: a restart or another replica will accept
		// the retry, so make the 503 explicitly retryable instead of
		// leaving clients to guess.
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: %v", fleet.ErrInvalid, err))
		return
	}
	opts := fleet.Opts{StaleLimit: req.StaleLimit, Quorum: req.Quorum, Freeze: req.Freeze}
	var sess *fleet.Session
	var err error
	if req.ID != "" {
		sess, err = s.cfg.Manager.CreateWithID(req.ID, req.Profile, req.User, opts)
	} else {
		sess, err = s.cfg.Manager.Create(req.Profile, req.User, opts)
	}
	if err != nil {
		// An unknown profile is a client mistake, not a server fault.
		if !errors.Is(err, fleet.ErrShutdown) && !errors.Is(err, fleet.ErrInvalid) &&
			!errors.Is(err, fleet.ErrExists) {
			err = fmt.Errorf("%w: %v", fleet.ErrInvalid, err)
		}
		writeError(w, err)
		return
	}
	m := sess.Model()
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID:         sess.ID(),
		Profile:    m.Name,
		Sensors:    m.Sensors(),
		Classes:    m.Classes(),
		Window:     m.Window,
		Activities: m.System.Profile.Activities,
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.cfg.Manager.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.cfg.Manager.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Inputs converts the JSON payload into fleet sensor inputs: votes first,
// then windows, each group in request order. The order is part of the
// deterministic replay contract, which is why this conversion is exported:
// the replay tests feed loadgen-generated ClassifyRequests through it to
// drive facade sessions with byte-identical input sequences.
func Inputs(req *ClassifyRequest) ([]fleet.SensorInput, error) {
	inputs := make([]fleet.SensorInput, 0, len(req.Votes)+len(req.Windows))
	for _, v := range req.Votes {
		inputs = append(inputs, fleet.SensorInput{Sensor: v.Sensor, Class: v.Class, Confidence: v.Confidence})
	}
	for _, win := range req.Windows {
		if len(win.Samples) == 0 {
			return nil, fmt.Errorf("%w: window for sensor %d has no samples", fleet.ErrInvalid, win.Sensor)
		}
		cols := len(win.Samples[0])
		t := tensor.New(len(win.Samples), cols)
		d := t.Data()
		for r, row := range win.Samples {
			if len(row) != cols {
				return nil, fmt.Errorf("%w: window for sensor %d has ragged rows", fleet.ErrInvalid, win.Sensor)
			}
			copy(d[r*cols:(r+1)*cols], row)
		}
		inputs = append(inputs, fleet.SensorInput{Sensor: win.Sensor, Window: t})
	}
	return inputs, nil
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	// The parse clock covers JSON decode plus input shaping — the cost the
	// binary stream path amortises away (see Metrics.ParseNanos).
	parseStart := time.Now()
	var req ClassifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: %v", fleet.ErrInvalid, err))
		return
	}
	inputs, err := Inputs(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.cfg.Metrics.noteParse(time.Since(parseStart))
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// HTTP rounds carry no stream lineage, so there is no attachment.
	res, err := s.cfg.Manager.Classify(ctx, r.PathValue("id"), inputs, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	tel := s.cfg.Manager.Telemetry()
	if err := tel.WritePrometheus(w); err != nil {
		return
	}
	snap := s.cfg.Manager.Snapshot()
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP origin_serve_%s %s\n# TYPE origin_serve_%s gauge\norigin_serve_%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP origin_serve_%s %s\n# TYPE origin_serve_%s counter\norigin_serve_%s %d\n", name, help, name, name, v)
	}
	gauge("sessions_active", "Live sessions.", int64(snap.SessionsActive))
	counter("sessions_created_total", "Sessions opened.", snap.SessionsCreated)
	counter("sessions_evicted_total", "Sessions evicted by LRU/TTL.", snap.SessionsEvicted)
	counter("sessions_closed_total", "Sessions closed explicitly.", snap.SessionsClosed)
	counter("requests_accepted_total", "Classify rounds that took a running slot.", snap.RequestsAccepted)
	counter("requests_shed_total", "Classify requests shed with every slot busy and the waiting line full (or by forced shed).", snap.RequestsShed)
	counter("requests_done_total", "Classify requests completed.", snap.RequestsDone)
	gauge("queue_depth", "Classify callers waiting for a running slot.", int64(snap.QueueDepth))
	counter("windows_batched_total", "Windows scored through the micro-batcher.", snap.WindowsBatched)
	counter("batch_flushes_total", "Micro-batch inference flushes.", snap.BatchFlushes)
	counter("sessions_restored_total", "Sessions rebuilt from the shared state store (migrations absorbed).", snap.SessionsRestored)
	m := s.cfg.Metrics
	counter("parse_nanos_total", "Request-decode time (JSON or stream frames) in nanoseconds.", m.ParseNanos.Load())
	counter("parse_rounds_total", "Classify rounds whose request decode was timed.", m.ParseRounds.Load())
	counter("stream_conns_total", "Stream connections accepted.", m.StreamConns.Load())
	counter("stream_frames_total", "Stream frames ingested.", m.StreamFrames.Load())
	counter("stream_bytes_total", "Stream uplink bytes ingested (payload plus envelope).", m.StreamBytes.Load())
	counter("stream_rejects_total", "Stream frames or rounds rejected (protocol errors, shed retries).", m.StreamRejects.Load())
	counter("stream_rounds_total", "Classify rounds completed over the stream front.", m.StreamRounds.Load())
	counter("stream_resumes_total", "Stream sessions resumed after a disconnect.", m.StreamResumes.Load())
	counter("stream_resume_misses_total", "Hello-with-token lookups that found no resumable state.", m.StreamResumeMisses.Load())
	counter("stream_store_resumes_total", "Stream resumes served from the shared state store (migrated sessions).", m.StreamStoreResumes.Load())
	counter("stream_parked_total", "Stream states parked on disconnect awaiting resume.", m.StreamParked.Load())
	counter("stream_resume_expired_total", "Parked stream states dropped by TTL or cap.", m.StreamExpired.Load())
	counter("stream_result_flushes_total", "Downlink writes carrying one or more coalesced result frames.", m.StreamResultFlushes.Load())
	counter("stream_heartbeats_total", "Server heartbeat frames written.", m.StreamHeartbeats.Load())
}
