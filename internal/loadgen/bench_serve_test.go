package loadgen_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/loadgen"
	"origin/internal/serve"
)

// BenchmarkServeWindows measures end-to-end serving throughput of
// window-mode traffic (raw IMU windows classified server-side, each round
// scoring its own windows). One op is a full loadgen run: users × rounds
// window classifications through the HTTP API. The interesting metric is
// windows/s.
func BenchmarkServeWindows(b *testing.B) {
	const users, rounds = 8, 6
	mgr := fleet.NewManager(fleet.Config{
		Registry:   fleettest.NewRegistry(),
		QueueDepth: 256,
		Workers:    8,
	})
	ts := httptest.NewServer(serve.New(serve.Config{Manager: mgr, RequestTimeout: 30 * time.Second}))
	defer func() {
		ts.Close()
		mgr.Close()
	}()
	cfg := loadgen.Config{
		BaseURL:           ts.URL,
		Profile:           "MHEALTH",
		Users:             users,
		Requests:          rounds,
		Seed:              5,
		Mode:              loadgen.ModeWindows,
		SensorsPerRequest: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadgen.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	windows := float64(b.N * users * rounds)
	b.ReportMetric(windows/b.Elapsed().Seconds(), "windows/s")
}
