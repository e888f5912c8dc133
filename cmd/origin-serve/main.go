// Command origin-serve runs the fleet serving service: an HTTP/JSON API
// over the shared model registry and the multi-user session manager.
//
//	origin-serve -addr :8080 -profiles MHEALTH
//	origin-serve -addr :8080 -max-sessions 10000 -session-ttl 30m -queue 512
//	origin-serve -addr :8080 -batch-size 32 -batch-hold 200us
//	origin-serve -addr :8080 -quant
//	origin-serve -addr :8080 -stream-addr :8081
//
// Sessions hold per-wearer ensemble state (recall store + adaptive
// confidence matrix) over models built once per profile; each classify
// round runs on its request once it holds one of -workers running slots,
// up to -queue more requests wait for a slot, and beyond that the server
// sheds load with 429. SIGINT/SIGTERM waits for every admitted round
// before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"origin/internal/experiments"
	"origin/internal/fleet"
	"origin/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		profiles     = flag.String("profiles", "MHEALTH", "comma-separated profiles to build at startup (sessions may still request others lazily)")
		maxSessions  = flag.Int("max-sessions", 4096, "live session cap (LRU eviction beyond it)")
		sessionTTL   = flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (0 = never)")
		shards       = flag.Int("shards", 8, "session map shard count")
		queueDepth   = flag.Int("queue", 256, "classify requests allowed to wait for a running slot (beyond it, 429)")
		workers      = flag.Int("workers", 0, "classify rounds run at once (0 = GOMAXPROCS, raised to -batch-size)")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "per-classify deadline")
		batchSize    = flag.Int("batch-size", 16, "micro-batch window cap for batched inference (1 disables batching)")
		batchHold    = flag.Duration("batch-hold", 0, "max time a window may wait for batch-mates (0 = only coalesce already-queued work)")
		quant        = flag.Bool("quant", false, "serve with the int8 quantized inference hot path (smaller resident models, higher throughput; accuracy parity gated at build)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight work on shutdown")
		janitorEvery = flag.Duration("janitor-every", time.Minute, "TTL eviction sweep interval")
		cache        = flag.String("cache", "", "model cache directory")
		streamAddr   = flag.String("stream-addr", "", "binary stream front listen address (empty = HTTP only)")
		idleTimeout  = flag.Duration("stream-idle-timeout", 5*time.Minute, "close stream connections idle longer than this")
		resumeTTL    = flag.Duration("resume-ttl", 2*time.Minute, "keep disconnected stream sessions resumable this long (negative disables resume)")
		resumeCap    = flag.Int("resume-cap", 4096, "max parked stream sessions (oldest evicted beyond it)")
		stateDir     = flag.String("state-dir", "", "externalize session state to this directory (shared by every replica behind an origin-router; empty keeps sessions replica-local)")
	)
	flag.Parse()
	if *cache != "" {
		os.Setenv("ORIGIN_CACHE", *cache)
	}

	// Validate everything CLI-reachable before the minutes-long model
	// build (same friendly-exit contract as origin-sim).
	var warm []string
	for _, p := range strings.Split(*profiles, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !experiments.KnownProfile(p) {
			usageError("unknown profile %q (want one of %v)", p, experiments.ProfileNames())
		}
		warm = append(warm, p)
	}
	if *maxSessions <= 0 {
		usageError("-max-sessions must be positive, got %d", *maxSessions)
	}
	if *shards <= 0 {
		usageError("-shards must be positive, got %d", *shards)
	}
	if *queueDepth <= 0 {
		usageError("-queue must be positive, got %d", *queueDepth)
	}
	if *sessionTTL < 0 || *reqTimeout <= 0 || *drainTimeout <= 0 {
		usageError("timeouts must be positive (-session-ttl may be 0)")
	}
	if *batchSize <= 0 {
		usageError("-batch-size must be positive, got %d", *batchSize)
	}
	if *batchHold < 0 {
		usageError("-batch-hold must not be negative, got %s", *batchHold)
	}
	if *idleTimeout <= 0 {
		usageError("-stream-idle-timeout must be positive, got %s", *idleTimeout)
	}
	if *resumeCap <= 0 {
		usageError("-resume-cap must be positive, got %d", *resumeCap)
	}

	// Externalized state: with a shared -state-dir, every classified round
	// is snapshotted to disk and any replica pointed at the same directory
	// can pick a session up mid-stream (the origin-router quickstart in the
	// README runs two such replicas behind one router).
	var state fleet.StateStore
	if *stateDir != "" {
		fs, err := fleet.NewFileStateStore(*stateDir)
		if err != nil {
			usageError("%v", err)
		}
		state = fs
	}

	mgr := fleet.NewManager(fleet.Config{
		Shards:      *shards,
		MaxSessions: *maxSessions,
		TTL:         *sessionTTL,
		QueueDepth:  *queueDepth,
		Workers:     *workers,
		BatchSize:   *batchSize,
		BatchHold:   *batchHold,
		Quantized:   *quant,
		State:       state,
	})
	for _, p := range warm {
		log.Printf("building model for profile %s (first build trains; later runs load the cache)", p)
		// Under -quant this also compiles the int8 model, so the first
		// session create does not pay for it and an inexpressible net fails
		// at startup, not at request time.
		if _, err := mgr.Model(p); err != nil {
			log.Fatalf("origin-serve: build %s: %v", p, err)
		}
		log.Printf("profile %s ready", p)
	}

	metrics := &serve.Metrics{}
	srv := &http.Server{
		Addr:    *addr,
		Handler: serve.New(serve.Config{Manager: mgr, RequestTimeout: *reqTimeout, Metrics: metrics}),
	}

	// Stream front: the persistent binary uplink shares the manager (and the
	// metrics instance) with the HTTP API, so both fronts serve the same
	// sessions and /metrics covers both.
	var streamSrv *serve.StreamServer
	if *streamAddr != "" {
		ln, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			log.Fatalf("origin-serve: stream listen: %v", err)
		}
		streamSrv = serve.NewStreamServer(serve.StreamConfig{
			Manager: mgr, Metrics: metrics,
			RoundTimeout: *reqTimeout, IdleTimeout: *idleTimeout,
			ResumeTTL: *resumeTTL, ResumeCap: *resumeCap,
		})
		go func() {
			if err := streamSrv.Serve(ln); err != nil {
				log.Printf("origin-serve: stream front: %v", err)
			}
		}()
		log.Printf("stream front listening on %s", *streamAddr)
	}

	// Janitor: periodic TTL sweeps (eviction is otherwise lazy).
	stopJanitor := make(chan struct{})
	if *sessionTTL > 0 {
		go func() {
			t := time.NewTicker(*janitorEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if n := mgr.EvictExpired(); n > 0 {
						log.Printf("janitor: evicted %d idle sessions", n)
					}
				case <-stopJanitor:
					return
				}
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("origin-serve listening on %s", *addr)

	select {
	case err := <-errCh:
		log.Fatalf("origin-serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let in-flight HTTP
	// requests (and the classify rounds they run or wait for) finish, then
	// close the manager.
	log.Printf("shutting down: draining in-flight work (max %s)", *drainTimeout)
	close(stopJanitor)
	if streamSrv != nil {
		// Close the stream front before the manager so in-flight rounds
		// finish before the manager stops admitting them.
		streamSrv.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("origin-serve: shutdown: %v", err)
	}
	mgr.Close()
	snap := mgr.Snapshot()
	log.Printf("done: %d requests served, %d shed, %d sessions live at exit",
		snap.RequestsDone, snap.RequestsShed, snap.SessionsActive)
}

// usageError reports a configuration mistake and exits with the
// flag-misuse status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "origin-serve: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run with -h for the full flag list")
	os.Exit(2)
}
