package fleet_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/loadgen"
	"origin/internal/serve"
	"origin/internal/synth"
)

// openSessions opens one session on mgr per user of cfg.
func openSessions(t *testing.T, mgr *fleet.Manager, cfg *loadgen.Config) []*fleet.Session {
	t.Helper()
	sessions := make([]*fleet.Session, cfg.Users)
	for i := range sessions {
		s, err := mgr.Create(cfg.Profile, loadgen.UserID(i), fleet.Opts{})
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		sessions[i] = s
	}
	return sessions
}

// classifyConcurrently drives every user's window-mode request stream of cfg
// through Manager.Classify on that user's session, each user from its own
// goroutine, all at once. Shed rounds are retried, so the returned per-user
// classes do not depend on load.
func classifyConcurrently(t *testing.T, mgr *fleet.Manager, cfg *loadgen.Config, sessions []*fleet.Session) [][]int {
	t.Helper()
	out := make([][]int, cfg.Users)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := loadgen.NewStream(cfg, synth.MHEALTHProfile(), i)
			classes := make([]int, cfg.Requests)
			for k := range classes {
				req := st.Next(k)
				inputs, err := serve.Inputs(&req)
				if err != nil {
					t.Errorf("user %d round %d: %v", i, k, err)
					return
				}
				for {
					res, err := mgr.Classify(context.Background(), sessions[i].ID(), inputs, nil)
					if err == fleet.ErrSaturated {
						continue
					}
					if err != nil {
						t.Errorf("user %d round %d: %v", i, k, err)
						return
					}
					classes[k] = res.Class
					break
				}
			}
			out[i] = classes
		}(i)
	}
	wg.Wait()
	return out
}

// requireSerial fails t for every user whose classes diverged from
// loadgen.SerialReplay of cfg over the models newModel builds.
func requireSerial(t *testing.T, cfg *loadgen.Config, newModel func(string) (*fleet.Model, error), got [][]int) {
	t.Helper()
	want, err := loadgen.SerialReplay(cfg, newModel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("user %d: concurrent rounds diverged from serial replay:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

// prop: concurrent window-mode rounds, each scoring its own windows on its
// caller's goroutine, return exactly the classes of a serial replay, and
// every window counts as one forward pass. Run under -race by make
// verify-serve.
func TestConcurrentWindowRoundsMatchSerialReplay(t *testing.T) {
	mgr := fleet.NewManager(fleet.Config{Registry: fleettest.NewRegistry(), QueueDepth: 64, Workers: 8})
	defer mgr.Close()
	cfg := replayConfig("", loadgen.ModeWindows, 6, 10)
	cfg.SensorsPerRequest = fleet.NumSensors
	got := classifyConcurrently(t, mgr, &cfg, openSessions(t, mgr, &cfg))
	requireSerial(t, &cfg, fleettest.NewModel, got)
	snap := mgr.Snapshot()
	windows := int64(cfg.Users * cfg.Requests * cfg.SensorsPerRequest)
	if snap.WindowsBatched != windows || snap.BatchFlushes != windows {
		t.Fatalf("windows scored %d, forward passes %d; want %d of each",
			snap.WindowsBatched, snap.BatchFlushes, windows)
	}
}

// prop: with the legacy batching knobs set to values that once forced
// coalescing, concurrent window-mode loadgen runs over HTTP still produce
// exactly the sequences of a serial replay, and every window is its own
// forward pass: BatchSize and BatchHold switch nothing. Run under -race by
// make verify-serve.
func TestMicroBatchedMatchesSerialReplay(t *testing.T) {
	mgr := fleet.NewManager(fleet.Config{
		Registry:   fleettest.NewRegistry(),
		QueueDepth: 64,
		Workers:    8,
		BatchSize:  4,
		BatchHold:  2 * time.Millisecond,
	})
	ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr, RequestTimeout: 30 * time.Second}))
	defer mgr.Close()
	defer ts.Close()
	cfg := replayConfig(ts.URL, loadgen.ModeWindows, 6, 10)
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	requireReplay(t, &cfg, rep.Sessions)
	snap := mgr.Snapshot()
	windows := int64(cfg.Users * cfg.Requests * cfg.SensorsPerRequest)
	if snap.WindowsBatched != windows || snap.BatchFlushes != windows {
		t.Fatalf("windows scored %d, forward passes %d; want %d of each",
			snap.WindowsBatched, snap.BatchFlushes, windows)
	}
}

// prop: managers configured with and without the legacy batching knobs,
// given identical concurrent window streams, return identical classes.
func TestBatchedAndUnbatchedManagersAgree(t *testing.T) {
	cfg := replayConfig("", loadgen.ModeWindows, 5, 8)
	run := func(batchSize int, hold time.Duration) [][]int {
		mgr := fleet.NewManager(fleet.Config{
			Registry:   fleettest.NewRegistry(),
			QueueDepth: 64,
			Workers:    8,
			BatchSize:  batchSize,
			BatchHold:  hold,
		})
		defer mgr.Close()
		return classifyConcurrently(t, mgr, &cfg, openSessions(t, mgr, &cfg))
	}
	batched := run(6, time.Millisecond)
	direct := run(1, 0)
	for i := range batched {
		if !reflect.DeepEqual(batched[i], direct[i]) {
			t.Errorf("user %d: batch-size 6 %v vs batch-size 1 %v", i, batched[i], direct[i])
		}
	}
}

// prop: Config.Quantized serves every session from the manager's int8
// model, never the registry's float one, and concurrent int8 window rounds
// return exactly the classes of a serial replay on that model.
func TestQuantizedManagersAgree(t *testing.T) {
	reg := fleettest.NewRegistry()
	mgr := fleet.NewManager(fleet.Config{Registry: reg, QueueDepth: 64, Workers: 8, Quantized: true})
	defer mgr.Close()
	float, err := reg.Get("MHEALTH")
	if err != nil {
		t.Fatal(err)
	}
	int8Model, err := mgr.Model("MHEALTH")
	if err != nil {
		t.Fatal(err)
	}
	if int8Model == float {
		t.Fatal("Quantized manager serves the registry's float model")
	}
	cfg := replayConfig("", loadgen.ModeWindows, 4, 8)
	sessions := openSessions(t, mgr, &cfg)
	for _, s := range sessions {
		if s.Model() != int8Model {
			t.Fatalf("session %s is not served by the manager's int8 model", s.ID())
		}
	}
	requireSerial(t, &cfg, mgr.Model, classifyConcurrently(t, mgr, &cfg, sessions))
}
