// Package loadgen drives an origin-serve instance with N concurrent
// synthetic wearers and measures serving throughput and latency.
//
// Each simulated user is a closed loop: open a session, then send one
// classify request per activity-timeline slot, waiting for each response
// (and retrying shed requests) before sending the next. Every user's
// request stream is derived from (seed, user index) alone — the activity
// timeline, the duty-cycled reporting sensor, the synthetic votes or IMU
// windows all come from per-user RNG streams — so the payload sequence a
// session receives is identical across runs and across concurrency levels.
// That is what makes the fleet determinism contract checkable end to end:
// a concurrent loadgen run and a serial replay of the same streams through
// the facade must produce identical per-session classification sequences.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"origin/internal/serve"
	"origin/internal/synth"
)

// Mode selects the classify payload kind.
type Mode string

const (
	// ModeVotes sends precomputed per-sensor softmax votes (cheap; no
	// server-side inference).
	ModeVotes Mode = "votes"
	// ModeWindows sends raw IMU windows classified server-side on the
	// model's nets.
	ModeWindows Mode = "windows"
	// ModeStream sends delta-quantized binary IMU frames over a persistent
	// per-session stream connection; the server assembles sliding windows
	// host-side and pushes results back on the same stream (see
	// internal/loadgen/stream.go).
	ModeStream Mode = "stream"
)

// KnownMode reports whether name is a valid payload mode.
func KnownMode(name string) bool {
	switch Mode(name) {
	case ModeVotes, ModeWindows, ModeStream:
		return true
	}
	return false
}

// ModeNames lists the valid payload modes for usage diagnostics.
func ModeNames() []string {
	return []string{string(ModeVotes), string(ModeWindows), string(ModeStream)}
}

// Config parameterises one load run.
type Config struct {
	// BaseURL is the serve endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Profile is the dataset profile sessions are opened on.
	Profile string
	// Users is the number of concurrent closed-loop users; Requests the
	// classify rounds each one performs.
	Users, Requests int
	// Seed fixes every user stream.
	Seed int64
	// Mode selects votes or windows payloads.
	Mode Mode
	// SensorsPerRequest is how many sensors report fresh data per round
	// (duty-cycled round-robin, like the paper's one-activation-per-slot
	// scheduler; the recall store covers the rest). Default 1.
	SensorsPerRequest int
	// VoteFlip is the probability a synthetic vote mislabels the true
	// activity (ModeVotes only). Default 0.2.
	VoteFlip float64
	// Quorum / StaleLimit / Freeze forward to session creation.
	Quorum, StaleLimit int
	Freeze             bool
	// StreamAddr is the stream front's TCP address (host:port), required
	// for ModeStream.
	StreamAddr string
	// StreamHop is how many new samples per channel each steady-state
	// stream frame carries (the sliding-window hop; the first frame per
	// sensor always carries a full window). Default DefaultStreamHop.
	StreamHop int
	// ReconnectMax bounds consecutive failed stream (re)connect attempts
	// before a user hard-fails (stream mode; default 8). The counter resets
	// on every completed handshake.
	ReconnectMax int
	// Client is the HTTP client (default: 30 s timeout).
	Client *http.Client
	// Traces records every session's classification sequence in the
	// report (the replay tests need it; large runs may skip it).
	Traces bool
	// OnRound, when non-nil, is called after every successfully classified
	// round with the session that classified it and the run-wide
	// completed-round total (1-based, counted across all users). Shard-chaos
	// tests use it to kill a replica at a point in a session's own progress.
	// Called from user goroutines; must be cheap and safe for concurrent use.
	OnRound func(session string, total int)

	// rounds is the run-wide completed-round counter behind OnRound. It is
	// a pointer so Config stays copyable; Run allocates it.
	rounds *atomic.Int64
}

// noteRound records one successfully classified round and fires OnRound.
func (c *Config) noteRound(session string) {
	if c.rounds == nil {
		return
	}
	n := c.rounds.Add(1)
	if c.OnRound != nil {
		c.OnRound(session, int(n))
	}
}

// SessionTrace is one user's served classification sequence.
type SessionTrace struct {
	// User is the wearer id the session was opened with.
	User int64 `json:"user"`
	// ID is the server-assigned session id.
	ID string `json:"id"`
	// Classes is the fused classification per round, in order.
	Classes []int `json:"classes"`
}

// Report is the load run outcome.
type Report struct {
	Profile         string  `json:"profile"`
	Mode            string  `json:"mode"`
	Users           int     `json:"users"`
	RequestsPerUser int     `json:"requestsPerUser"`
	Seed            int64   `json:"seed"`
	Sent            int     `json:"sent"`
	OK              int     `json:"ok"`
	Shed            int     `json:"shed"`
	Errors          int     `json:"errors"`
	DurationS       float64 `json:"durationS"`
	// ThroughputRPS counts successful classify rounds per wall-clock
	// second across all users.
	ThroughputRPS float64 `json:"throughputRPS"`
	LatencyP50Ms  float64 `json:"latencyP50Ms"`
	LatencyP95Ms  float64 `json:"latencyP95Ms"`
	LatencyP99Ms  float64 `json:"latencyP99Ms"`
	// Accuracy compares served classifications against the generator's
	// ground-truth activity timeline (the client knows the truth it
	// synthesised — a live deployment would not).
	Accuracy float64 `json:"accuracy"`

	// UplinkBytes is the total request payload bytes shipped uplink: JSON
	// bodies in votes/windows mode, enveloped frames (payload + header +
	// CRC) in stream mode. HTTP header overhead is excluded, which flatters
	// the JSON modes — the stream compression numbers are a floor.
	UplinkBytes int64 `json:"uplinkBytes"`
	// UplinkBytesPerClassification is UplinkBytes over successful rounds —
	// the column the wire-compression gate compares across modes.
	UplinkBytesPerClassification float64 `json:"uplinkBytesPerClassification"`
	// ParseNsPerClassification is the server-side request-decode cost per
	// round (JSON decode + input shaping, or frame decode + window
	// assembly), read as a /metrics counter delta around the run. Zero when
	// the server does not export parse counters.
	ParseNsPerClassification float64 `json:"parseNsPerClassification"`

	// Resume/availability columns. Only stream mode can make them non-zero,
	// but every mode emits them — report consumers (benchdiff, report
	// diffing) see one schema regardless of payload kind instead of keys
	// that appear and vanish with the mode. Reconnects
	// counts completed re-handshakes after a connection loss; ResumeAttempts
	// the hello-with-token handshakes the server answered; ResumeMisses the
	// answers that found no resumable state. DoubleClassifies counts rounds
	// the server classified more than once — the resume protocol's headline
	// invariant is that this stays zero under any disconnect pattern.
	Reconnects       int `json:"reconnects"`
	ResumeAttempts   int `json:"resumeAttempts"`
	ResumeMisses     int `json:"resumeMisses"`
	DoubleClassifies int `json:"doubleClassifies"`
	// ResumeSuccessRate is 1 - misses/attempts (1.0 with no attempts);
	// Availability is 1 - total reconnect downtime over total user wall
	// time. Both are 1.0 on a fault-free run and 0 in the JSON modes,
	// which have no persistent connection to resume.
	ResumeSuccessRate float64 `json:"resumeSuccessRate"`
	Availability      float64 `json:"availability"`

	Sessions []SessionTrace `json:"sessions,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// UserID returns the wearer id of the i-th simulated user. Ids start past
// the training population so loadgen users exercise the unseen-user
// adaptation path.
func UserID(i int) int64 { return 1000 + int64(i) }

// streamSeed derives the i-th user's private RNG seed.
func streamSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// Stream generates one user's deterministic request payloads. Request k
// depends only on (profile, seed, user index, k), never on timing or on
// other users.
type Stream struct {
	profile  *synth.Profile
	timeline *synth.Timeline
	gen      *synth.Generator
	rng      *rand.Rand
	cfg      *Config
	step     int
}

// NewStream builds the i-th user's request stream.
func NewStream(cfg *Config, profile *synth.Profile, i int) *Stream {
	seed := streamSeed(cfg.Seed, i)
	// Shorter segments than the simulator default (240 slots ≈ 60 s):
	// serving rounds are sparser than scheduler slots, and short load runs
	// should still cross several activity transitions.
	tl := synth.GenerateTimeline(profile, synth.TimelineConfig{
		Slots: cfg.Requests, MeanSegment: 40, MinSegment: 10, Seed: seed,
	})
	u := synth.NewUser(UserID(i))
	return &Stream{
		profile:  profile,
		timeline: tl,
		gen:      synth.NewGenerator(profile, u, windowLen, seed+1),
		rng:      rand.New(rand.NewSource(seed + 2)),
		cfg:      cfg,
		step:     0,
	}
}

// windowLen matches experiments.Window without importing the heavyweight
// experiments package into every loadgen user goroutine. Pinned by a test.
const windowLen = 64

// Truth returns the ground-truth activity of round k.
func (st *Stream) Truth(k int) int { return st.timeline.PerSlot[k] }

// Next produces round k's classify payload. Must be called with k equal
// to the number of prior calls (streams are strictly sequential — the RNG
// state advances with each round).
func (st *Stream) Next(k int) serve.ClassifyRequest {
	if k != st.step {
		panic(fmt.Sprintf("loadgen: stream stepped out of order: got %d want %d", k, st.step))
	}
	st.step++
	truth := st.timeline.PerSlot[k]
	n := st.cfg.SensorsPerRequest
	var req serve.ClassifyRequest
	for j := 0; j < n; j++ {
		sensorID := (k*n + j) % synth.NumLocations
		if st.cfg.Mode == ModeWindows {
			w := st.gen.WindowFor(truth, synth.Location(sensorID))
			rows := make([][]float64, synth.Channels)
			d := w.Data()
			cols := w.Dim(1)
			for r := 0; r < synth.Channels; r++ {
				rows[r] = append([]float64(nil), d[r*cols:(r+1)*cols]...)
			}
			req.Windows = append(req.Windows, serve.Window{Sensor: sensorID, Samples: rows})
			continue
		}
		class := truth
		if st.rng.Float64() < st.cfg.VoteFlip {
			class = st.rng.Intn(st.profile.NumClasses())
		}
		conf := 0.01 + 0.05*st.rng.Float64()
		req.Votes = append(req.Votes, serve.Vote{Sensor: sensorID, Class: class, Confidence: conf})
	}
	return req
}

// userResult is one user goroutine's tally.
type userResult struct {
	trace       SessionTrace
	sent        int
	ok          int
	shed        int
	errs        int
	correct     int
	uplinkBytes int64
	latencies   []time.Duration
	err         error

	// Stream-mode resume tallies.
	reconnects       int
	resumeAttempts   int
	resumeMisses     int
	doubleClassifies int
	downtime         time.Duration
	wall             time.Duration
}

// Run executes the load run and aggregates the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Users <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: users and requests must be positive")
	}
	cfg.rounds = new(atomic.Int64)
	if cfg.SensorsPerRequest <= 0 {
		cfg.SensorsPerRequest = 1
	}
	if cfg.SensorsPerRequest > synth.NumLocations {
		cfg.SensorsPerRequest = synth.NumLocations
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeVotes
	}
	if !KnownMode(string(cfg.Mode)) {
		return nil, fmt.Errorf("loadgen: unknown mode %q (want one of %v)", cfg.Mode, ModeNames())
	}
	if cfg.Mode == ModeStream && cfg.StreamAddr == "" {
		return nil, fmt.Errorf("loadgen: stream mode requires StreamAddr")
	}
	if cfg.StreamHop == 0 {
		cfg.StreamHop = DefaultStreamHop
	}
	if cfg.StreamHop < 1 || cfg.StreamHop > windowLen {
		return nil, fmt.Errorf("loadgen: stream hop %d outside [1,%d]", cfg.StreamHop, windowLen)
	}
	if cfg.ReconnectMax == 0 {
		cfg.ReconnectMax = defaultReconnectMax
	}
	if cfg.ReconnectMax < 1 {
		return nil, fmt.Errorf("loadgen: reconnect max %d below 1", cfg.ReconnectMax)
	}
	if cfg.VoteFlip == 0 {
		cfg.VoteFlip = 0.2
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	profile, err := synth.ProfileByName(cfg.Profile)
	if err != nil {
		return nil, err
	}

	parseNanos0, parseRounds0 := fetchParseCounters(cfg.Client, cfg.BaseURL)
	results := make([]userResult, cfg.Users)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		go func(i int) {
			defer wg.Done()
			if cfg.Mode == ModeStream {
				results[i] = runStreamUser(&cfg, profile, i)
			} else {
				results[i] = runUser(&cfg, profile, i)
			}
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)
	parseNanos1, parseRounds1 := fetchParseCounters(cfg.Client, cfg.BaseURL)

	rep := &Report{
		Profile: cfg.Profile, Mode: string(cfg.Mode),
		Users: cfg.Users, RequestsPerUser: cfg.Requests, Seed: cfg.Seed,
		DurationS: dur.Seconds(),
	}
	var lats []time.Duration
	var wallSum, downSum time.Duration
	total, correct := 0, 0
	for i := range results {
		r := &results[i]
		if r.err != nil && rep.Errors == 0 {
			err = r.err // surface the first hard failure
		}
		rep.Sent += r.sent
		rep.OK += r.ok
		rep.Shed += r.shed
		rep.Errors += r.errs
		rep.UplinkBytes += r.uplinkBytes
		rep.Reconnects += r.reconnects
		rep.ResumeAttempts += r.resumeAttempts
		rep.ResumeMisses += r.resumeMisses
		rep.DoubleClassifies += r.doubleClassifies
		wallSum += r.wall
		downSum += r.downtime
		lats = append(lats, r.latencies...)
		total += len(r.trace.Classes)
		correct += r.correct
		if cfg.Traces {
			rep.Sessions = append(rep.Sessions, r.trace)
		}
	}
	if cfg.Mode == ModeStream {
		rep.ResumeSuccessRate = 1
		if rep.ResumeAttempts > 0 {
			rep.ResumeSuccessRate = float64(rep.ResumeAttempts-rep.ResumeMisses) / float64(rep.ResumeAttempts)
		}
		rep.Availability = 1
		if wallSum > 0 {
			rep.Availability = 1 - downSum.Seconds()/wallSum.Seconds()
		}
	}
	if dur > 0 {
		rep.ThroughputRPS = float64(rep.OK) / dur.Seconds()
	}
	rep.LatencyP50Ms = PercentileMs(lats, 0.50)
	rep.LatencyP95Ms = PercentileMs(lats, 0.95)
	rep.LatencyP99Ms = PercentileMs(lats, 0.99)
	if total > 0 {
		rep.Accuracy = float64(correct) / float64(total)
	}
	if rep.OK > 0 {
		rep.UplinkBytesPerClassification = float64(rep.UplinkBytes) / float64(rep.OK)
	}
	if dn, dr := parseNanos1-parseNanos0, parseRounds1-parseRounds0; dn > 0 && dr > 0 {
		rep.ParseNsPerClassification = float64(dn) / float64(dr)
	}
	if rep.Errors > 0 && err == nil {
		err = fmt.Errorf("loadgen: %d requests failed", rep.Errors)
	}
	return rep, err
}

// createSession opens user i's session, retrying transient failures
// (network errors and 5xx answers) with a short linear backoff. Session
// creation is safe to retry blindly: loadgen never picks the session id,
// so a retry after a lost response simply mints a fresh session and the
// orphan (if the lost create actually landed) idles until eviction. The
// shard-chaos drills rely on this — a create that races a replica kill
// must re-route, not fail the run.
func createSession(cfg *Config, i int) (serve.CreateSessionResponse, error) {
	create := serve.CreateSessionRequest{
		Profile: cfg.Profile, User: UserID(i),
		StaleLimit: cfg.StaleLimit, Quorum: cfg.Quorum, Freeze: cfg.Freeze,
	}
	const attempts = 5
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(time.Duration(a) * 100 * time.Millisecond)
		}
		var created serve.CreateSessionResponse
		status, _, err := PostJSON(cfg.Client, cfg.BaseURL+"/v1/sessions", create, &created)
		if err == nil && status == http.StatusCreated {
			return created, nil
		}
		lastErr = fmt.Errorf("loadgen: user %d create session: status %d err %v", i, status, err)
		if err == nil && status < 500 {
			return serve.CreateSessionResponse{}, lastErr // client error: retrying cannot help
		}
	}
	return serve.CreateSessionResponse{}, lastErr
}

// runUser is one closed-loop user: create a session, then send every
// round in order, retrying shed (429) rounds so the stream the session
// processes is always the complete, ordered stream.
func runUser(cfg *Config, profile *synth.Profile, i int) userResult {
	var r userResult
	created, err := createSession(cfg, i)
	if err != nil {
		r.errs++
		r.err = err
		return r
	}
	r.trace = SessionTrace{User: UserID(i), ID: created.ID}
	st := NewStream(cfg, profile, i)
	url := cfg.BaseURL + "/v1/sessions/" + created.ID + "/classify"
	for k := 0; k < cfg.Requests; k++ {
		req := st.Next(k)
		for attempt := 0; ; attempt++ {
			var res serve.ClassifyResponse
			t0 := time.Now()
			status, reqBytes, err := PostJSON(cfg.Client, url, req, &res)
			lat := time.Since(t0)
			r.sent++
			// Every send is real uplink, including retries of shed rounds.
			r.uplinkBytes += int64(reqBytes)
			if err != nil {
				r.errs++
				r.err = fmt.Errorf("loadgen: user %d round %d: %v", i, k, err)
				return r
			}
			if status == http.StatusTooManyRequests {
				// Shed: back off briefly and resend the same round.
				r.shed++
				time.Sleep(time.Duration(1+attempt) * 2 * time.Millisecond)
				continue
			}
			if status != http.StatusOK {
				r.errs++
				r.err = fmt.Errorf("loadgen: user %d round %d: status %d", i, k, status)
				return r
			}
			r.ok++
			cfg.noteRound(created.ID)
			r.latencies = append(r.latencies, lat)
			r.trace.Classes = append(r.trace.Classes, res.Class)
			if res.Class == st.Truth(k) {
				r.correct++
			}
			break
		}
	}
	return r
}

// PostJSON posts v as JSON and decodes a 2xx response into out (when out
// is non-nil). It returns the HTTP status and the request body size — the
// uplink-bytes accounting unit for the JSON modes.
func PostJSON(c *http.Client, url string, v, out any) (int, int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, len(body), err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, len(body), err
		}
		return resp.StatusCode, len(body), nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, len(body), nil
}

// PercentileMs returns the q-th latency percentile in milliseconds
// (nearest-rank on the sorted sample; 0 for an empty sample). Exported so
// scenario phase reports aggregate with the same estimator as loadgen.
func PercentileMs(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}
