package scenario_test

import (
	"bytes"
	"net"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"origin/internal/fault"
	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/scenario"
	"origin/internal/serve"
)

// newStack stands up the full serving stack a scenario drives: manager +
// HTTP API + a chaos-wrapped stream front (zero-config chaos = transparent),
// returning the engine handles.
func newStack(t *testing.T) scenario.Handles {
	t.Helper()
	mgr := fleet.NewManager(fleet.Config{
		Registry:   fleettest.NewRegistry(),
		QueueDepth: 64,
		Workers:    4,
	})
	ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr, RequestTimeout: 30 * time.Second}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := fault.NewChaosListener(ln, fault.ConnChaos{})
	if err != nil {
		t.Fatal(err)
	}
	ss := serve.NewStreamServer(serve.StreamConfig{Manager: mgr, RoundTimeout: 30 * time.Second})
	go func() { _ = ss.Serve(chaos) }()
	t.Cleanup(func() {
		ss.Close()
		ts.Close()
		mgr.Close()
	})
	return scenario.Handles{
		BaseURL:    ts.URL,
		StreamAddr: ln.Addr().String(),
		Chaos:      chaos,
		Manager:    mgr,
	}
}

// prop (ISSUE acceptance): same seed → byte-identical canonical SLO report,
// across fresh serving stacks, scheduling, and goroutine interleavings.
func TestRunCanonicalDeterministic(t *testing.T) {
	run := func() []byte {
		spec, err := scenario.CalmScenario("MHEALTH", 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(spec, newStack(t))
		if err != nil {
			t.Fatalf("scenario run: %v", err)
		}
		b, err := res.Report.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("canonical sections differ across same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// prop (ISSUE acceptance): a zero-fault day — full lifecycle machinery
// (churn, drift, connection cycling) but no chaos or pressure — replays
// classification sequences identical to serial single-session execution
// through the facade. Runs in CI under -race via the race job's stress step.
func TestCalmRunMatchesSerialReplay(t *testing.T) {
	spec, err := scenario.CalmScenario("MHEALTH", 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec, newStack(t))
	if err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	want, err := scenario.SerialReplay(spec, fleettest.NewModel)
	if err != nil {
		t.Fatalf("serial replay: %v", err)
	}
	if len(res.Lineages) != len(want) {
		t.Fatalf("live run traced %d lineages, replay %d", len(res.Lineages), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(res.Lineages[i], want[i]) {
			t.Errorf("lineage %d diverged from serial replay:\n live   %+v\n replay %+v",
				i, res.Lineages[i], want[i])
		}
	}
	c := &res.Report.Canonical
	if c.TotalRounds != res.Report.Measured.OK {
		t.Errorf("measured OK %d != planned rounds %d", res.Report.Measured.OK, c.TotalRounds)
	}
	if c.Retired == 0 || c.ColdStarts == 0 {
		t.Errorf("calm day exercised no churn: %+v", c)
	}
	if c.Accuracy.DriftRounds == 0 {
		t.Errorf("calm day exercised no drift rounds: %+v", c.Accuracy)
	}
}

// prop (ISSUE acceptance, headline): the built-in chaos day — diurnal load,
// churn, drift, forced shed, kill-everything connection chaos — finishes
// with zero lost rounds, availability ≥ 0.99, a clean resume protocol, and
// a canonical section byte-identical across same-seed runs.
func TestDayScenarioChaos(t *testing.T) {
	run := func(seed int64) (*scenario.Result, scenario.Handles) {
		spec, err := scenario.DayScenario("MHEALTH", seed)
		if err != nil {
			t.Fatal(err)
		}
		h := newStack(t)
		res, err := scenario.Run(spec, h)
		if err != nil {
			t.Fatalf("day scenario: %v", err)
		}
		return res, h
	}
	res, h := run(5)
	c, m := &res.Report.Canonical, &res.Report.Measured

	if m.OK != c.TotalRounds || m.Errors != 0 {
		t.Fatalf("rounds lost: ok=%d errors=%d want %d", m.OK, m.Errors, c.TotalRounds)
	}
	if m.Availability < 0.99 {
		t.Errorf("availability %.4f below 0.99", m.Availability)
	}
	if m.ResumeMisses != 0 || m.DoubleClassifies != 0 {
		t.Errorf("resume protocol violated: misses=%d doubleClassifies=%d", m.ResumeMisses, m.DoubleClassifies)
	}
	if stats := h.Chaos.Stats(); stats.Kills == 0 {
		t.Errorf("chaos phase injected no kills: %+v", stats)
	}
	if m.Shed == 0 {
		t.Errorf("pressure phase shed nothing")
	}
	if m.Reconnects == 0 || m.ResumeAttempts == 0 {
		t.Errorf("no resumes exercised: %+v", m)
	}
	if c.Accuracy.DriftRounds == 0 || c.Accuracy.CalmRounds == 0 {
		t.Errorf("accuracy split degenerate: %+v", c.Accuracy)
	}

	// Determinism bar holds under chaos too: faults shake timing, never
	// decisions.
	res2, _ := run(5)
	b1, err := res.Report.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := res2.Report.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("canonical sections differ across same-seed chaos runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b1, b2)
	}
}

// prop: handle validation — chaos and pressure windows demand the matching
// in-process handles, and stream lineages demand a stream address.
func TestRunHandleValidation(t *testing.T) {
	spec, err := scenario.DayScenario("MHEALTH", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(spec, scenario.Handles{}); err == nil {
		t.Error("empty handles accepted")
	}
	if _, err := scenario.Run(spec, scenario.Handles{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Error("chaos day accepted without a chaos handle")
	}
}
