package scenario

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"origin/internal/fault"
	"origin/internal/fleet"
	"origin/internal/loadgen"
	"origin/internal/obs"
	"origin/internal/serve"
	"origin/internal/synth"
)

// ShardCluster is the topology handle sharded scenarios drive — satisfied
// by *cluster.Cluster (declared here, not imported, so single-node scenario
// users never link the cluster package).
type ShardCluster interface {
	// KillReplica crashes a replica abruptly; LeaveReplica decommissions it
	// gracefully. AddReplica starts and joins a fresh one, returning its name.
	KillReplica(name string) error
	LeaveReplica(name string) error
	AddReplica() (string, error)
	// Replicas lists live members; Owner maps a session id to its ring owner.
	Replicas() []string
	Owner(session string) string
	// MigratedResumes counts sessions resumed across a shard boundary from
	// the shared state store since the cluster started.
	MigratedResumes() int64
}

// Handles wires the engine to a live serving stack. BaseURL is required;
// StreamAddr is required when any lineage uses the stream front; Chaos and
// Manager are required only when the spec opens chaos or pressure windows
// (mid-run toggles need the in-process handles — an external server cannot
// have its faults flipped remotely); Cluster is required only when the spec
// has shard ops.
type Handles struct {
	BaseURL    string
	StreamAddr string
	Client     *http.Client
	Chaos      *fault.ChaosListener
	Manager    *fleet.Manager
	Cluster    ShardCluster
}

// LineageTrace is one lineage's canonical outcome: its full classification
// and ground-truth sequences from birth to retirement.
type LineageTrace struct {
	Index   int   `json:"index"`
	Wearer  int64 `json:"wearer"`
	Born    int   `json:"born"`
	Stream  bool  `json:"stream"`
	Classes []int `json:"classes"`
	Truth   []int `json:"truth"`
}

// Result pairs the SLO report with the per-lineage traces that back its
// canonical section.
type Result struct {
	Report   *obs.SLOReport
	Lineages []LineageTrace
}

// chaosSeed derives phase p's connection-fault seed from the spec seed.
func chaosSeed(spec *Spec, p int) int64 { return spec.Seed + 1009*int64(p+1) }

// liveLineage is one lineage's live-run state, owned by its phase goroutine
// while a phase runs and by the engine between phases.
type liveLineage struct {
	lp     lineagePlan
	gen    *lineageGen
	sessID string
	client *loadgen.StreamClient // nil on the HTTP front

	classes []int
	truths  []int
	correct int

	// Wall-clock tallies (measured section only).
	latencies []time.Duration
	shed      int
	wall      time.Duration
	err       error
}

// engine carries one Run's state.
type engine struct {
	spec *Spec
	pl   *plan
	h    Handles
	lins []*liveLineage // indexed by lineage index; nil until born

	// Shard-topology tallies (measured section).
	shardKills int
	shardJoins int
}

// Run executes the scenario against the serving stack behind h and
// assembles the SLO report. Phases run strictly in sequence; within a
// phase, one goroutine per live lineage runs a closed loop (round k+1 only
// after round k's result), matching the loadgen user model.
func Run(spec *Spec, h Handles) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if h.BaseURL == "" {
		return nil, fmt.Errorf("scenario: Handles.BaseURL is required")
	}
	if h.Client == nil {
		h.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if spec.HasChaos() && h.Chaos == nil {
		return nil, fmt.Errorf("scenario: spec %q opens chaos windows but Handles.Chaos is nil", spec.Name)
	}
	if spec.HasPressure() && h.Manager == nil {
		return nil, fmt.Errorf("scenario: spec %q opens pressure windows but Handles.Manager is nil", spec.Name)
	}
	if spec.HasShardOps() && h.Cluster == nil {
		return nil, fmt.Errorf("scenario: spec %q changes shard topology but Handles.Cluster is nil", spec.Name)
	}
	pl := buildPlan(spec)
	if spec.StreamFraction > 0 && h.StreamAddr == "" {
		for _, lp := range pl.lineages {
			if lp.Stream {
				return nil, fmt.Errorf("scenario: lineage %d uses the stream front but Handles.StreamAddr is empty", lp.Index)
			}
		}
	}
	profile, err := synth.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	e := &engine{spec: spec, pl: pl, h: h, lins: make([]*liveLineage, len(pl.lineages))}

	start := time.Now()
	measured := obs.SLOMeasured{ResumeSuccessRate: 1, Availability: 1}
	var migrated0 int64
	if h.Cluster != nil {
		migrated0 = h.Cluster.MigratedResumes()
	}
	for p := range spec.Phases {
		ph := &spec.Phases[p]

		// Phase-entry actions, in a fixed order: retire, shard ops, windows,
		// drift, roam, cold-start. Shard ops run before cold-starts so
		// sessions born this phase are placed on the new topology.
		for _, l := range e.lins {
			if l != nil && l.lp.Die == p {
				e.retire(l)
			}
		}
		if err := e.applyShardOps(ph, p); err != nil {
			return nil, err
		}
		if h.Chaos != nil {
			cc := fault.ConnChaos{}
			if ph.Chaos != nil {
				cc = ph.Chaos.conn(chaosSeed(spec, p))
			}
			if err := h.Chaos.SetConfig(cc); err != nil {
				return nil, fmt.Errorf("scenario: phase %q: %w", ph.Name, err)
			}
		}
		if h.Manager != nil {
			pr := fleet.Pressure{}
			if ph.Pressure != nil {
				pr = ph.Pressure.pressure()
			}
			if err := h.Manager.SetPressure(pr); err != nil {
				return nil, fmt.Errorf("scenario: phase %q: %w", ph.Name, err)
			}
		}
		for _, idx := range pl.live[p] {
			lp := pl.lineages[idx]
			if lp.Born == p {
				l, err := e.coldStart(lp, profile, p)
				if err != nil {
					return nil, err
				}
				e.lins[idx] = l
				continue
			}
			l := e.lins[idx]
			l.gen.enterPhase(p)
			if ph.CycleConns && l.client != nil {
				l.client.CycleConn()
			}
		}

		// Snapshot counters that accumulate per client, to attribute deltas
		// to this phase.
		preStats := make(map[int]loadgen.StreamStats)
		for _, idx := range pl.live[p] {
			if c := e.lins[idx].client; c != nil {
				preStats[idx] = c.Stats()
			}
		}
		preShed := int64(0)
		if h.Manager != nil {
			preShed = h.Manager.Snapshot().RequestsShed
		}

		var wg sync.WaitGroup
		for _, idx := range pl.live[p] {
			l := e.lins[idx]
			wg.Add(1)
			go func(l *liveLineage) {
				defer wg.Done()
				e.runPhase(l, ph)
			}(l)
		}
		wg.Wait()

		pm := obs.SLOPhaseMeasured{Name: ph.Name}
		var phaseLats []time.Duration
		for _, idx := range pl.live[p] {
			l := e.lins[idx]
			if l.err != nil {
				return nil, l.err
			}
			pm.OK += ph.Rounds
			phaseLats = append(phaseLats, l.latencies...)
			l.latencies = l.latencies[:0]
			if h.Manager == nil {
				// No manager handle: fall back to client-observed 429s.
				pm.Shed += l.shed
			}
			l.shed = 0
			if c := l.client; c != nil {
				st := c.Stats()
				pm.Reconnects += st.Reconnects - preStats[idx].Reconnects
			}
		}
		if h.Manager != nil {
			// The manager counter covers both fronts (HTTP 429s and stream
			// rounds shed-then-retried server-side) without double counting.
			pm.Shed = int(h.Manager.Snapshot().RequestsShed - preShed)
		}
		pm.LatencyP50Ms = loadgen.PercentileMs(phaseLats, 0.50)
		pm.LatencyP95Ms = loadgen.PercentileMs(phaseLats, 0.95)
		pm.LatencyP99Ms = loadgen.PercentileMs(phaseLats, 0.99)
		measured.Phases = append(measured.Phases, pm)
		measured.OK += pm.OK
		measured.Shed += pm.Shed
	}

	// Day over: close stream connections and fold the transport tallies.
	var wallSum, downSum time.Duration
	for _, l := range e.lins {
		if l == nil {
			continue
		}
		if l.client != nil {
			l.client.Close()
			st := l.client.Stats()
			measured.Reconnects += st.Reconnects
			measured.ResumeAttempts += st.ResumeAttempts
			measured.ResumeMisses += st.ResumeMisses
			measured.DoubleClassifies += st.DoubleClassifies
			downSum += st.Downtime
			wallSum += l.wall
		}
	}
	measured.DurationS = time.Since(start).Seconds()
	measured.ShardKills = e.shardKills
	measured.ShardJoins = e.shardJoins
	if h.Cluster != nil {
		measured.MigratedResumes = h.Cluster.MigratedResumes() - migrated0
	}
	if measured.ResumeAttempts > 0 {
		measured.ResumeSuccessRate = float64(measured.ResumeAttempts-measured.ResumeMisses) / float64(measured.ResumeAttempts)
	}
	if wallSum > 0 {
		measured.Availability = 1 - downSum.Seconds()/wallSum.Seconds()
	}
	if total := measured.OK + measured.Shed; total > 0 {
		measured.ShedRate = float64(measured.Shed) / float64(total)
	}

	traces := make([]LineageTrace, len(e.lins))
	for i, l := range e.lins {
		traces[i] = LineageTrace{
			Index: l.lp.Index, Wearer: l.lp.Wearer, Born: l.lp.Born, Stream: l.lp.Stream,
			Classes: l.classes, Truth: l.truths,
		}
	}
	report := &obs.SLOReport{
		Canonical: buildCanonical(pl, traces),
		Measured:  measured,
	}
	return &Result{Report: report, Lineages: traces}, nil
}

// coldStart creates the server-side session (and, on the stream front, the
// persistent connection) for a lineage born at phase p.
func (e *engine) coldStart(lp lineagePlan, profile *synth.Profile, p int) (*liveLineage, error) {
	var created serve.CreateSessionResponse
	status, _, err := loadgen.PostJSON(e.h.Client, e.h.BaseURL+"/v1/sessions",
		serve.CreateSessionRequest{Profile: e.spec.Profile, User: lp.Wearer}, &created)
	if err != nil || status != http.StatusCreated {
		return nil, fmt.Errorf("scenario: lineage %d create session: status %d err %v", lp.Index, status, err)
	}
	l := &liveLineage{lp: lp, gen: newLineageGen(e.spec, profile, lp), sessID: created.ID}
	l.gen.enterPhase(p)
	if lp.Stream {
		// lp.Seed+6 mirrors loadgen's backoff jitter stream.
		l.client = loadgen.NewStreamClient(e.h.StreamAddr, created.ID, lp.Index,
			e.spec.ReconnectMax, lp.Seed+6)
		ack, err := l.client.Connect()
		if err != nil {
			return nil, fmt.Errorf("scenario: lineage %d: %w", lp.Index, err)
		}
		if ack.NextSlot != 0 {
			return nil, fmt.Errorf("scenario: lineage %d: fresh session starts at slot %d", lp.Index, ack.NextSlot)
		}
	}
	return l, nil
}

// applyShardOps applies phase p's topology changes against the cluster
// handle. Kills and leaves refuse to take the last replica down (the day
// must stay servable); joins count toward shardJoins even when the spec
// kills in the same phase.
func (e *engine) applyShardOps(ph *Phase, p int) error {
	for _, op := range ph.ShardOps {
		switch op.Op {
		case "kill", "leave":
			if len(e.h.Cluster.Replicas()) <= 1 {
				return fmt.Errorf("scenario: phase %q: refusing to %s the last replica", ph.Name, op.Op)
			}
			name := op.Replica
			if name == "" {
				name = e.victim(p)
			}
			var err error
			if op.Op == "kill" {
				err = e.h.Cluster.KillReplica(name)
			} else {
				err = e.h.Cluster.LeaveReplica(name)
			}
			if err != nil {
				return fmt.Errorf("scenario: phase %q: %w", ph.Name, err)
			}
			e.shardKills++
		case "join":
			if _, err := e.h.Cluster.AddReplica(); err != nil {
				return fmt.Errorf("scenario: phase %q: %w", ph.Name, err)
			}
			e.shardJoins++
		}
	}
	return nil
}

// victim picks the replica whose death provably migrates a session: the ring
// owner of the oldest lineage alive in phase p. Falls back to the first
// member when no lineage survives into the phase (a kill before any session
// exists still exercises membership change).
func (e *engine) victim(p int) string {
	for _, idx := range e.pl.live[p] {
		if l := e.lins[idx]; l != nil && l.sessID != "" {
			if owner := e.h.Cluster.Owner(l.sessID); owner != "" {
				return owner
			}
		}
	}
	if reps := e.h.Cluster.Replicas(); len(reps) > 0 {
		return reps[0]
	}
	return ""
}

// retire deletes a lineage's session server-side and drops its connection.
func (e *engine) retire(l *liveLineage) {
	if l.client != nil {
		l.client.Close()
	}
	req, err := http.NewRequest(http.MethodDelete, e.h.BaseURL+"/v1/sessions/"+l.sessID, nil)
	if err != nil {
		return
	}
	resp, err := e.h.Client.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// runPhase runs one lineage's closed loop for the phase. Errors land on
// l.err; the engine surfaces the first one after the phase barrier.
func (e *engine) runPhase(l *liveLineage, ph *Phase) {
	t0 := time.Now()
	defer func() { l.wall += time.Since(t0) }()
	gap := time.Duration(ph.GapMs) * time.Millisecond
	for k := 0; k < ph.Rounds; k++ {
		if k > 0 && gap > 0 {
			time.Sleep(gap)
		}
		truth := l.gen.truth()
		var class int
		var err error
		if l.client != nil {
			class, err = e.streamRound(l)
		} else {
			class, err = e.httpRound(l)
		}
		if err != nil {
			l.err = err
			return
		}
		l.classes = append(l.classes, class)
		l.truths = append(l.truths, truth)
		if class == truth {
			l.correct++
		}
	}
}

// streamRound ships one round over the binary front.
func (e *engine) streamRound(l *liveLineage) (int, error) {
	slot := l.gen.slot()
	frames, err := l.gen.frames()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	class, err := l.client.Round(slot, frames)
	if err != nil {
		return 0, err
	}
	l.latencies = append(l.latencies, time.Since(t0))
	return class, nil
}

// httpRound ships one round over the JSON front, retrying shed (429)
// rounds with linear backoff so the session always sees the complete,
// ordered stream — the same discipline as the loadgen HTTP user.
func (e *engine) httpRound(l *liveLineage) (int, error) {
	req := l.gen.request()
	url := e.h.BaseURL + "/v1/sessions/" + l.sessID + "/classify"
	for attempt := 0; ; attempt++ {
		var res serve.ClassifyResponse
		t0 := time.Now()
		status, _, err := loadgen.PostJSON(e.h.Client, url, req, &res)
		if err != nil {
			return 0, fmt.Errorf("scenario: lineage %d round %d: %v", l.lp.Index, l.gen.slot()-1, err)
		}
		if status == http.StatusTooManyRequests {
			l.shed++
			time.Sleep(time.Duration(1+attempt) * 2 * time.Millisecond)
			continue
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("scenario: lineage %d round %d: status %d", l.lp.Index, l.gen.slot()-1, status)
		}
		l.latencies = append(l.latencies, time.Since(t0))
		return res.Class, nil
	}
}
