// Command origin-loadgen drives an origin-serve instance with N concurrent
// deterministic synthetic wearers and reports throughput and latency
// percentiles.
//
//	origin-loadgen -users 32 -requests 200                 # self-served
//	origin-loadgen -addr http://127.0.0.1:8080 -mode windows
//	origin-loadgen -users 16 -requests 500 -json BENCH_serve.json
//
// With no -addr the command starts an in-process origin-serve (same
// manager, same HTTP stack, loopback listener), so one invocation yields a
// complete serving benchmark.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"origin/internal/experiments"
	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/loadgen"
	"origin/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "", "target origin-serve base URL (empty = start an in-process server)")
		profile    = flag.String("profile", "MHEALTH", "dataset profile: MHEALTH or PAMAP2")
		users      = flag.Int("users", 16, "concurrent closed-loop users")
		requests   = flag.Int("requests", 200, "classify rounds per user")
		seed       = flag.Int64("seed", 1, "load stream seed (fixes every user's payload sequence)")
		mode       = flag.String("mode", "votes", "payload kind: votes, windows or stream")
		sensorsPer = flag.Int("sensors-per-request", 1, "sensors reporting fresh data per round (1..3)")
		flip       = flag.Float64("flip", 0.2, "synthetic vote mislabel probability (votes mode)")
		quorum     = flag.Int("quorum", 0, "session vote quorum (0 = off)")
		staleLimit = flag.Int("stale-limit", 0, "session recall stale limit in rounds (0 = unlimited)")
		freeze     = flag.Bool("freeze", false, "disable online matrix adaptation")
		traces     = flag.Bool("traces", false, "include per-session classification sequences in the JSON report")
		jsonOut    = flag.String("json", "", `write the report as JSON to this file ("-" = stdout)`)
		queueDepth = flag.Int("queue", 256, "in-process server: classify calls allowed to wait for a running slot")
		workers    = flag.Int("workers", 0, "in-process server: classify rounds run at once (0 = GOMAXPROCS, raised to the batch size)")
		cache      = flag.String("cache", "", "model cache directory")
		streamAddr = flag.String("stream-addr", "", "stream front host:port (stream mode against an external -addr; the in-process server starts its own)")
		streamHop  = flag.Int("stream-hop", loadgen.DefaultStreamHop, "new samples per steady-state stream frame (1..64)")
		tinyModel  = flag.Bool("tiny-model", false, "serve tiny deterministic untrained models (CI wire-bytes gate; in-process server only)")
		reconnMax  = flag.Int("reconnect-max", 0, "consecutive failed reconnect attempts before a stream user gives up (0 = default)")
	)
	flag.Parse()
	if *cache != "" {
		os.Setenv("ORIGIN_CACHE", *cache)
	}
	if !experiments.KnownProfile(*profile) {
		usageError("unknown profile %q (want one of %v)", *profile, experiments.ProfileNames())
	}
	if *users <= 0 || *requests <= 0 {
		usageError("-users and -requests must be positive, got %d and %d", *users, *requests)
	}
	if !loadgen.KnownMode(*mode) {
		usageError("unknown -mode %q (want one of %v)", *mode, loadgen.ModeNames())
	}
	if *sensorsPer < 1 || *sensorsPer > fleet.NumSensors {
		usageError("-sensors-per-request must be in [1,%d], got %d", fleet.NumSensors, *sensorsPer)
	}
	if *flip < 0 || *flip >= 1 {
		usageError("-flip must be in [0,1), got %v", *flip)
	}
	if *streamHop < 1 || *streamHop > experiments.Window {
		usageError("-stream-hop must be in [1,%d], got %d", experiments.Window, *streamHop)
	}
	if *addr != "" && loadgen.Mode(*mode) == loadgen.ModeStream && *streamAddr == "" {
		usageError("-mode stream against an external -addr needs -stream-addr")
	}
	if *tinyModel && *addr != "" {
		usageError("-tiny-model only applies to the in-process server (drop -addr)")
	}
	if *reconnMax < 0 {
		usageError("-reconnect-max must not be negative, got %d", *reconnMax)
	}

	base, streamBase := *addr, *streamAddr
	if base == "" {
		mgrCfg := fleet.Config{QueueDepth: *queueDepth, Workers: *workers}
		if *tinyModel {
			mgrCfg.Registry = fleettest.NewRegistry()
		}
		mgr := fleet.NewManager(mgrCfg)
		if _, err := mgr.Registry().Get(*profile); err != nil {
			fmt.Fprintf(os.Stderr, "origin-loadgen: build %s: %v\n", *profile, err)
			os.Exit(1)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "origin-loadgen: listen: %v\n", err)
			os.Exit(1)
		}
		// One Metrics instance across both fronts, so the /metrics parse
		// counters cover whichever path the run exercises.
		metrics := &serve.Metrics{}
		srv := &http.Server{Handler: serve.New(serve.Config{Manager: mgr, Metrics: metrics})}
		go func() { _ = srv.Serve(ln) }()
		defer func() { _ = srv.Close(); mgr.Close() }()
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process origin-serve on %s\n", base)
		if loadgen.Mode(*mode) == loadgen.ModeStream {
			sln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "origin-loadgen: stream listen: %v\n", err)
				os.Exit(1)
			}
			streamBase = sln.Addr().String()
			ss := serve.NewStreamServer(serve.StreamConfig{Manager: mgr, Metrics: metrics})
			go func() { _ = ss.Serve(sln) }()
			defer ss.Close()
			fmt.Printf("in-process stream front on %s\n", streamBase)
		}
	}

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL: base, Profile: *profile,
		Users: *users, Requests: *requests, Seed: *seed,
		Mode: loadgen.Mode(*mode), SensorsPerRequest: *sensorsPer, VoteFlip: *flip,
		Quorum: *quorum, StaleLimit: *staleLimit, Freeze: *freeze,
		StreamAddr: streamBase, StreamHop: *streamHop,
		ReconnectMax: *reconnMax,
		Traces:       *traces,
		Client:       &http.Client{Timeout: 60 * time.Second},
	})
	if rep != nil {
		fmt.Printf("loadgen %s/%s: %d users × %d rounds in %.2fs\n",
			rep.Profile, rep.Mode, rep.Users, rep.RequestsPerUser, rep.DurationS)
		fmt.Printf("  throughput  %.0f rounds/s  (ok=%d shed=%d errors=%d)\n",
			rep.ThroughputRPS, rep.OK, rep.Shed, rep.Errors)
		fmt.Printf("  latency     p50=%.2fms  p95=%.2fms  p99=%.2fms\n",
			rep.LatencyP50Ms, rep.LatencyP95Ms, rep.LatencyP99Ms)
		fmt.Printf("  accuracy    %.2f%% vs synthetic ground truth\n", 100*rep.Accuracy)
		fmt.Printf("  uplink      %d bytes total, %.1f bytes/classification\n",
			rep.UplinkBytes, rep.UplinkBytesPerClassification)
		if rep.ParseNsPerClassification > 0 {
			fmt.Printf("  parse       %.0f ns/classification server-side\n", rep.ParseNsPerClassification)
		}
		if rep.Mode == string(loadgen.ModeStream) {
			fmt.Printf("  resilience  reconnects=%d resume-success=%.4f availability=%.4f double-classifies=%d\n",
				rep.Reconnects, rep.ResumeSuccessRate, rep.Availability, rep.DoubleClassifies)
		}
		if *jsonOut != "" {
			if werr := writeReport(rep, *jsonOut); werr != nil {
				fmt.Fprintf(os.Stderr, "origin-loadgen: %v\n", werr)
				os.Exit(1)
			}
			if *jsonOut != "-" {
				fmt.Printf("  report written to %s\n", *jsonOut)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "origin-loadgen: %v\n", err)
		os.Exit(1)
	}
}

func writeReport(rep *loadgen.Report, path string) error {
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rep.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// usageError reports a configuration mistake and exits with the
// flag-misuse status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "origin-loadgen: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run with -h for the full flag list")
	os.Exit(2)
}
