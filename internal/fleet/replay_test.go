package fleet_test

import (
	"net"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"origin/internal/fault"
	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/loadgen"
	"origin/internal/serve"
)

// newTestServer stands up a full serving stack (manager + HTTP API) over
// tiny deterministic models.
func newTestServer(t *testing.T, queueDepth, workers int) (*httptest.Server, *fleet.Manager) {
	t.Helper()
	mgr := fleet.NewManager(fleet.Config{
		Registry:   fleettest.NewRegistry(),
		QueueDepth: queueDepth,
		Workers:    workers,
	})
	ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr, RequestTimeout: 30 * time.Second}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

// newStreamFront attaches a binary stream front to the same manager and
// returns its address.
func newStreamFront(t *testing.T, mgr *fleet.Manager) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := serve.NewStreamServer(serve.StreamConfig{Manager: mgr, RoundTimeout: 30 * time.Second})
	go func() { _ = ss.Serve(ln) }()
	t.Cleanup(ss.Close)
	return ln.Addr().String()
}

// replayConfig fills every field Run would default, so the streams the
// serial replay regenerates are byte-identical to the ones loadgen sent.
func replayConfig(baseURL string, mode loadgen.Mode, users, requests int) loadgen.Config {
	return loadgen.Config{
		BaseURL:           baseURL,
		Profile:           "MHEALTH",
		Users:             users,
		Requests:          requests,
		Seed:              3,
		Mode:              mode,
		SensorsPerRequest: 1,
		VoteFlip:          0.2,
		Traces:            true,
	}
}

// requireReplay fails t for every user whose served sequence diverged from
// loadgen.SerialReplay over the same tiny models: the fault-free,
// single-node reference every loadgen run here must match.
func requireReplay(t *testing.T, cfg *loadgen.Config, sessions []loadgen.SessionTrace) {
	t.Helper()
	want, err := loadgen.SerialReplay(cfg, fleettest.NewModel)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range sessions {
		if !reflect.DeepEqual(tr.Classes, want[i]) {
			t.Errorf("user %d: served sequence diverged from serial replay:\n got %v\nwant %v",
				i, tr.Classes, want[i])
		}
	}
}

// prop (ISSUE acceptance): a concurrent stream-mode loadgen run yields
// per-session classification sequences bit-identical to serially replaying
// each session's frame stream through the assembler + facade. Runs in CI
// under -race via the serve verification target.
func TestStreamLoadgenMatchesSerialReplay(t *testing.T) {
	ts, mgr := newTestServer(t, 64, 4)
	cfg := replayConfig(ts.URL, loadgen.ModeStream, 4, 24)
	cfg.StreamAddr = newStreamFront(t, mgr)
	cfg.StreamHop = loadgen.DefaultStreamHop // Run defaults this on its own copy; the replay needs it too
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	if len(rep.Sessions) != cfg.Users {
		t.Fatalf("traced %d sessions, want %d", len(rep.Sessions), cfg.Users)
	}
	requireReplay(t, &cfg, rep.Sessions)
	if rep.UplinkBytes <= 0 || rep.UplinkBytesPerClassification <= 0 {
		t.Fatalf("stream run recorded no uplink bytes: %+v", rep)
	}
}

// prop (ISSUE acceptance, headline): with seeded connection chaos killing
// every stream connection mid-round, the reconnect/resume protocol keeps
// every session's classification sequence byte-identical to the fault-free
// serial replay — no lost rounds, no double classifications. Runs in CI
// under -race via the serve verification target.
func TestStreamChaosLoadgenMatchesSerialReplay(t *testing.T) {
	ts, mgr := newTestServer(t, 64, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := fault.NewChaosListener(ln, fault.ConnChaos{
		Seed:     21,
		KillRate: 1, KillMinBytes: 2048, KillMaxBytes: 8192,
		PartialWriteRate: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := serve.NewStreamServer(serve.StreamConfig{Manager: mgr, RoundTimeout: 30 * time.Second})
	go func() { _ = ss.Serve(chaos) }()
	t.Cleanup(ss.Close)

	cfg := replayConfig(ts.URL, loadgen.ModeStream, 4, 24)
	cfg.StreamAddr = ln.Addr().String()
	cfg.StreamHop = loadgen.DefaultStreamHop
	cfg.ReconnectMax = 16 // every connection dies; give redials headroom
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen under chaos: %v", err)
	}
	stats := chaos.Stats()
	t.Logf("chaos: %+v; reconnects=%d resumeAttempts=%d availability=%.4f",
		stats, rep.Reconnects, rep.ResumeAttempts, rep.Availability)
	if stats.Kills == 0 {
		t.Fatal("chaos injected no kills — the run proves nothing")
	}
	if rep.Reconnects == 0 || rep.ResumeAttempts == 0 {
		t.Fatalf("no resumes exercised: %+v", rep)
	}
	if rep.ResumeMisses != 0 || rep.DoubleClassifies != 0 {
		t.Fatalf("resume protocol violated: misses=%d doubleClassifies=%d",
			rep.ResumeMisses, rep.DoubleClassifies)
	}
	if rep.OK != cfg.Users*cfg.Requests || rep.Errors != 0 {
		t.Fatalf("rounds lost under chaos: %+v", rep)
	}
	requireReplay(t, &cfg, rep.Sessions)
}

// prop (ISSUE acceptance): for a fixed seed set, a concurrent loadgen run
// over N sessions yields per-session classification sequences identical to
// serially replaying each session's stream through the facade.
func TestLoadgenMatchesSerialReplay(t *testing.T) {
	cases := []struct {
		mode            loadgen.Mode
		users, requests int
	}{
		{loadgen.ModeVotes, 6, 50},
		{loadgen.ModeWindows, 3, 12}, // windows pay server-side inference
	}
	for _, tc := range cases {
		t.Run(string(tc.mode), func(t *testing.T) {
			ts, _ := newTestServer(t, 64, 4)
			cfg := replayConfig(ts.URL, tc.mode, tc.users, tc.requests)
			rep, err := loadgen.Run(cfg)
			if err != nil {
				t.Fatalf("loadgen: %v", err)
			}
			if len(rep.Sessions) != tc.users {
				t.Fatalf("traced %d sessions, want %d", len(rep.Sessions), tc.users)
			}
			for i, tr := range rep.Sessions {
				if tr.User != loadgen.UserID(i) {
					t.Fatalf("session %d traces user %d, want %d", i, tr.User, loadgen.UserID(i))
				}
			}
			requireReplay(t, &cfg, rep.Sessions)
		})
	}
}

// prop: two identical loadgen runs against fresh servers produce identical
// traces — serving is deterministic end to end, not merely self-consistent.
func TestLoadgenRunRepeatable(t *testing.T) {
	run := func() []loadgen.SessionTrace {
		ts, _ := newTestServer(t, 64, 4)
		cfg := replayConfig(ts.URL, loadgen.ModeVotes, 4, 40)
		rep, err := loadgen.Run(cfg)
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		return rep.Sessions
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Classes, b[i].Classes) {
			t.Errorf("user %d traces differ across runs:\n run1 %v\n run2 %v", i, a[i].Classes, b[i].Classes)
		}
	}
}

// prop: determinism survives shedding — with a starved queue the loadgen
// retries shed rounds, so sequences still match the serial replay.
func TestLoadgenDeterministicUnderShedding(t *testing.T) {
	ts, mgr := newTestServer(t, 1, 1) // depth-1 queue, single worker
	cfg := replayConfig(ts.URL, loadgen.ModeVotes, 6, 30)
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	requireReplay(t, &cfg, rep.Sessions)
	snap := mgr.Snapshot()
	t.Logf("shed=%d accepted=%d (sheds are load-dependent; correctness is not)",
		snap.RequestsShed, snap.RequestsAccepted)
}
