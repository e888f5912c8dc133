// Command origin-scenario runs a simulated day against an in-process
// serving stack and emits the SLO report.
//
//	origin-scenario -scenario day -seed 7 -o slo.json
//	origin-scenario -scenario calm -verify-replay -tiny
//	origin-scenario -scenario shard -replicas 3 -verify-replay -tiny
//	origin-scenario -spec myday.json -profile PAMAP2
//
// The stack (session manager, HTTP front, chaos-wrapped binary stream
// front) is stood up in-process because mid-run fault and pressure windows
// toggle live handles — an external server cannot have its faults flipped
// remotely. With -replicas N > 1 the stack is instead a sharded cluster (N
// replicas over a shared state store behind a consistent-hash router), which
// is what the shard ops in a spec (kill/leave/join) act on. The scenario
// itself (phases, churn, drift, chaos, pressure, shard ops) is either a
// built-in (-scenario day|calm|shard) or a declarative JSON spec (-spec);
// see internal/scenario for the phase model and determinism contract. The
// report's canonical section is byte-identical across same-seed runs and is
// gated in CI by `benchdiff drill-verify` (make verify-drill).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"origin/internal/cluster"
	"origin/internal/fault"
	"origin/internal/fleet"
	"origin/internal/fleet/fleettest"
	"origin/internal/scenario"
	"origin/internal/serve"
)

func main() {
	var (
		name         = flag.String("scenario", "day", "built-in scenario: day (chaos), calm (zero-fault) or shard (topology chaos)")
		specPath     = flag.String("spec", "", "declarative JSON scenario spec (overrides -scenario)")
		profile      = flag.String("profile", "MHEALTH", "activity profile for the built-in scenarios")
		seed         = flag.Int64("seed", 1, "scenario seed (same seed, same canonical report)")
		replicas     = flag.Int("replicas", 1, "shard count: 1 runs a single node, N > 1 a sharded cluster behind a consistent-hash router")
		tiny         = flag.Bool("tiny", false, "serve tiny deterministic models instead of trained ones (CI smoke)")
		verifyReplay = flag.Bool("verify-replay", false, "also replay every lineage serially and fail on any divergence")
		out          = flag.String("o", "-", "SLO report destination (- for stdout)")
		queueDepth   = flag.Int("queue", 256, "classify calls allowed to wait for a running slot")
		workers      = flag.Int("workers", 0, "classify rounds run at once (0 = GOMAXPROCS)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-classify deadline")
	)
	flag.Parse()
	if *queueDepth <= 0 || *reqTimeout <= 0 {
		usageError("-queue and -request-timeout must be positive")
	}
	if *replicas < 1 {
		usageError("-replicas must be positive, got %d", *replicas)
	}

	var spec *scenario.Spec
	var err error
	switch {
	case *specPath != "":
		spec, err = scenario.LoadSpec(*specPath)
	case *name == "day":
		spec, err = scenario.DayScenario(*profile, *seed)
	case *name == "calm":
		spec, err = scenario.CalmScenario(*profile, *seed)
	case *name == "shard":
		spec, err = scenario.ShardScenario(*profile, *seed)
	default:
		usageError("unknown scenario %q (want day, calm or shard)", *name)
	}
	if err != nil {
		usageError("%v", err)
	}
	if spec.HasShardOps() && *replicas < 2 {
		usageError("scenario %q changes shard topology; run it with -replicas 2 or more", spec.Name)
	}
	if *replicas > 1 && (spec.HasChaos() || spec.HasPressure()) {
		usageError("chaos and pressure windows need the single-node stack (-replicas 1); scenario %q opens one", spec.Name)
	}

	registry := fleet.NewRegistry(nil)
	if *tiny {
		registry = fleettest.NewRegistry()
	} else {
		log.Printf("building model for profile %s (first build trains; later runs load the cache)", spec.Profile)
	}
	if _, err := registry.Get(spec.Profile); err != nil {
		log.Fatalf("origin-scenario: build %s: %v", spec.Profile, err)
	}

	var h scenario.Handles
	if *replicas > 1 {
		cl, err := cluster.New(cluster.Config{
			Replicas:   *replicas,
			Registry:   registry,
			Store:      fleet.NewMemStateStore(),
			QueueDepth: *queueDepth,
			Workers:    *workers,
		})
		if err != nil {
			log.Fatalf("origin-scenario: %v", err)
		}
		defer cl.Close()
		log.Printf("sharded stack up: %d replicas behind the router at %s", *replicas, cl.HTTPURL())
		h = scenario.Handles{
			BaseURL:    cl.HTTPURL(),
			StreamAddr: cl.StreamAddr(),
			Cluster:    cl,
		}
	} else {
		mgr := fleet.NewManager(fleet.Config{
			Registry:   registry,
			QueueDepth: *queueDepth,
			Workers:    *workers,
		})
		defer mgr.Close()

		// HTTP front on a loopback ephemeral port.
		httpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("origin-scenario: listen: %v", err)
		}
		srv := &http.Server{Handler: serve.New(serve.Config{Manager: mgr, RequestTimeout: *reqTimeout})}
		go func() { _ = srv.Serve(httpLn) }()
		defer srv.Close()

		// Stream front, always chaos-wrapped (a zero config is transparent) so
		// fault windows can open mid-run.
		streamLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("origin-scenario: stream listen: %v", err)
		}
		chaos, err := fault.NewChaosListener(streamLn, fault.ConnChaos{})
		if err != nil {
			log.Fatalf("origin-scenario: %v", err)
		}
		ss := serve.NewStreamServer(serve.StreamConfig{Manager: mgr, RoundTimeout: *reqTimeout})
		go func() { _ = ss.Serve(chaos) }()
		defer ss.Close()
		h = scenario.Handles{
			BaseURL:    "http://" + httpLn.Addr().String(),
			StreamAddr: streamLn.Addr().String(),
			Chaos:      chaos,
			Manager:    mgr,
		}
	}

	res, err := scenario.Run(spec, h)
	if err != nil {
		log.Fatalf("origin-scenario: %v", err)
	}
	c, m := &res.Report.Canonical, &res.Report.Measured
	log.Printf("scenario %q done: %d lineages, %d rounds in %.2fs, accuracy %.4f (calm %.4f / drift %.4f), availability %.4f, shed %d, reconnects %d",
		c.Name, c.Lineages, c.TotalRounds, m.DurationS,
		c.Accuracy.Overall, c.Accuracy.Calm, c.Accuracy.Drift,
		m.Availability, m.Shed, m.Reconnects)
	if *replicas > 1 {
		log.Printf("shard topology: %d kill(s)/leave(s), %d join(s), %d session(s) migrated across shard boundaries",
			m.ShardKills, m.ShardJoins, m.MigratedResumes)
	}

	if *verifyReplay {
		newModel := registry.Get
		if *tiny {
			newModel = fleettest.NewModel
		}
		want, err := scenario.SerialReplay(spec, newModel)
		if err != nil {
			log.Fatalf("origin-scenario: serial replay: %v", err)
		}
		for i := range want {
			if !reflect.DeepEqual(res.Lineages[i], want[i]) {
				log.Fatalf("origin-scenario: lineage %d diverged from serial replay:\n live   %+v\n replay %+v",
					i, res.Lineages[i], want[i])
			}
		}
		log.Printf("replay verified: %d lineages byte-identical to serial execution", len(want))
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("origin-scenario: %v", err)
		}
		defer f.Close()
		w = f
	}
	if err := res.Report.WriteJSON(w); err != nil {
		log.Fatalf("origin-scenario: %v", err)
	}
}

// usageError reports a configuration mistake and exits with the flag-misuse
// status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "origin-scenario: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run with -h for the full flag list")
	os.Exit(2)
}
