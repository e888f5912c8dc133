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

// newBatchServer stands up a serving stack with explicit micro-batching
// configuration.
func newBatchServer(t *testing.T, cfg fleet.Config) (*httptest.Server, *fleet.Manager) {
	t.Helper()
	cfg.Registry = fleettest.NewRegistry()
	mgr := fleet.NewManager(cfg)
	ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr, RequestTimeout: 30 * time.Second}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

// prop (ISSUE acceptance): concurrent micro-batched classifies — with a hold
// window forcing real coalescing — produce exactly the sequences of a serial
// facade replay. Run under -race by make verify-serve.
func TestMicroBatchedMatchesSerialReplay(t *testing.T) {
	ts, mgr := newBatchServer(t, fleet.Config{
		QueueDepth: 64,
		Workers:    8,
		BatchSize:  4,
		BatchHold:  2 * time.Millisecond,
	})
	cfg := replayConfig(ts.URL, loadgen.ModeWindows, 6, 10)
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	requireReplay(t, &cfg, rep.Sessions)
	snap := mgr.Snapshot()
	if snap.WindowsBatched == 0 || snap.BatchFlushes == 0 {
		t.Fatalf("batch path never exercised: %+v", snap)
	}
	if snap.WindowsBatched < snap.BatchFlushes {
		t.Fatalf("windows (%d) < flushes (%d)", snap.WindowsBatched, snap.BatchFlushes)
	}
	t.Logf("windows=%d flushes=%d (mean batch %.2f)",
		snap.WindowsBatched, snap.BatchFlushes,
		float64(snap.WindowsBatched)/float64(snap.BatchFlushes))
}

// prop: BatchSize 1 disables the micro-batcher entirely; results are
// unchanged and the batch counters stay at zero.
func TestBatchSizeOneDisablesBatching(t *testing.T) {
	ts, mgr := newBatchServer(t, fleet.Config{
		QueueDepth: 64,
		Workers:    4,
		BatchSize:  1,
	})
	cfg := replayConfig(ts.URL, loadgen.ModeWindows, 3, 8)
	rep, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	requireReplay(t, &cfg, rep.Sessions)
	if snap := mgr.Snapshot(); snap.WindowsBatched != 0 || snap.BatchFlushes != 0 {
		t.Fatalf("batch counters moved with batching disabled: %+v", snap)
	}
}

// prop: a batched and an unbatched manager given identical concurrent window
// streams return identical classifications — batching is invisible in
// results, visible only in throughput.
func TestBatchedAndUnbatchedManagersAgree(t *testing.T) {
	const users, rounds = 5, 8

	run := func(batchSize int, hold time.Duration) [][]int {
		mgr := fleet.NewManager(fleet.Config{
			Registry:   fleettest.NewRegistry(),
			QueueDepth: 64,
			Workers:    8,
			BatchSize:  batchSize,
			BatchHold:  hold,
		})
		defer mgr.Close()

		ids := make([]string, users)
		for i := range ids {
			s, err := mgr.Create("MHEALTH", loadgen.UserID(i), fleet.Opts{})
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			ids[i] = s.ID()
		}
		out := make([][]int, users)
		var wg sync.WaitGroup
		for i := 0; i < users; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := replayConfig("", loadgen.ModeWindows, users, rounds)
				st := loadgen.NewStream(&cfg, synth.MHEALTHProfile(), i)
				classes := make([]int, rounds)
				for k := 0; k < rounds; k++ {
					req := st.Next(k)
					inputs, err := serve.Inputs(&req)
					if err != nil {
						t.Errorf("user %d round %d: %v", i, k, err)
						return
					}
					// Retry shed rounds: determinism must survive load.
					for {
						res, err := mgr.Classify(context.Background(), ids[i], inputs, nil)
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

	batched := run(6, time.Millisecond)
	direct := run(1, 0)
	for i := range batched {
		if !reflect.DeepEqual(batched[i], direct[i]) {
			t.Errorf("user %d: batched %v vs direct %v", i, batched[i], direct[i])
		}
	}
}

// prop: the int8 serving path preserves the determinism contract — a
// quantized batched manager and a quantized unbatched manager given
// identical concurrent window streams return identical classifications
// (int8 batched and single-window scoring are bit-identical per window),
// and Config.Quantized actually engages the int8 path: every session is
// served by the manager's int8 model, never by the registry's float one.
func TestQuantizedManagersAgree(t *testing.T) {
	const users, rounds = 4, 8

	run := func(batchSize int, hold time.Duration) [][]int {
		reg := fleettest.NewRegistry()
		mgr := fleet.NewManager(fleet.Config{
			Registry:   reg,
			QueueDepth: 64,
			Workers:    8,
			BatchSize:  batchSize,
			BatchHold:  hold,
			Quantized:  true,
		})
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

		ids := make([]string, users)
		for i := range ids {
			s, err := mgr.Create("MHEALTH", loadgen.UserID(i), fleet.Opts{})
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			if s.Model() != int8Model {
				t.Fatalf("session %d is not served by the manager's int8 model", i)
			}
			ids[i] = s.ID()
		}
		out := make([][]int, users)
		var wg sync.WaitGroup
		for i := 0; i < users; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := replayConfig("", loadgen.ModeWindows, users, rounds)
				st := loadgen.NewStream(&cfg, synth.MHEALTHProfile(), i)
				classes := make([]int, rounds)
				for k := 0; k < rounds; k++ {
					req := st.Next(k)
					inputs, err := serve.Inputs(&req)
					if err != nil {
						t.Errorf("user %d round %d: %v", i, k, err)
						return
					}
					for {
						res, err := mgr.Classify(context.Background(), ids[i], inputs, nil)
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

	batched := run(6, time.Millisecond)
	direct := run(1, 0)
	for i := range batched {
		if !reflect.DeepEqual(batched[i], direct[i]) {
			t.Errorf("user %d: quantized batched %v vs quantized direct %v", i, batched[i], direct[i])
		}
	}
}

// Close with an idle batcher set must not hang or panic, and must be
// idempotent.
func TestManagerCloseWithBatchersIdempotent(t *testing.T) {
	mgr := fleet.NewManager(fleet.Config{
		Registry:  fleettest.NewRegistry(),
		BatchSize: 8,
	})
	if _, err := mgr.Create("MHEALTH", 1, fleet.Opts{}); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	mgr.Close()
}
