GO ?= go

# Recipes pipe gate output through tee into bench_diff.txt; without pipefail
# the pipe would swallow a failing gate's exit status.
SHELL = /bin/bash -o pipefail

.PHONY: build test coverage bench bench-forward bench-serve verify-bench verify-bench-serve verify-drill verify-obs verify-fault verify-serve fuzz-smoke lint loc

BENCH_FORWARD = -run '^$$' -bench 'BenchmarkForward|BenchmarkKernelReference' \
	-benchtime 1s -count 5 . ./internal/tensor

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Shuffled full-suite run with a coverage gate (run by the build-and-test CI
# job): -shuffle=on breaks hidden inter-test ordering dependencies, and total
# statement coverage must hold the recorded floor (79.2% measured when the
# floor was set; the slack absorbs run-to-run jitter from timing-dependent
# paths). The profile lands in coverage.out, which CI uploads as an artifact.
COVER_FLOOR = 75.0
coverage:
	$(GO) test -shuffle=on -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' \
		|| { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem

# Go line counts of the root module, production and test files apart.
# perfbench/ is its own module and .bench_build/ is benchmark build output,
# so neither counts.
LOC_FILES = find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*'
loc:
	@echo "production Go lines: $$($(LOC_FILES) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test Go lines: $$($(LOC_FILES) -name '*_test.go' -exec cat {} + | wc -l)"

# Re-record the committed forward-throughput baseline: single-window vs
# micro-batched inference (float and int8) plus the frozen kernel anchor
# benchmark that cmd/benchdiff normalises against across machines.
bench-forward:
	$(GO) test $(BENCH_FORWARD) | tee /tmp/bench_forward.txt
	$(GO) run ./cmd/benchdiff extract -o BENCH_forward.json /tmp/bench_forward.txt

# Benchmark-regression gate (run by the bench-regression CI job): re-run the
# forward benchmarks, diff against the committed baseline (anchor-relative,
# 15% threshold, report in bench_diff.txt), then enforce the per-window
# speedup bars at batch 16: >=2x for the float batched path and >=3x for the
# int8 hot path, both against the float single-window baseline.
verify-bench:
	$(GO) test $(BENCH_FORWARD) > /tmp/bench_forward_new.txt
	$(GO) run ./cmd/benchdiff extract -o /tmp/BENCH_forward_new.json /tmp/bench_forward_new.txt
	$(GO) run ./cmd/benchdiff compare -o bench_diff.txt BENCH_forward.json /tmp/BENCH_forward_new.json
	$(GO) run ./cmd/benchdiff verify /tmp/BENCH_forward_new.json

# Re-record the committed serve-side wire baseline: one loadgen report per
# payload mode (JSON votes, JSON windows, binary stream) over the same
# (users, requests, seed) grid, merged into BENCH_serve.json. Uses the real
# MHEALTH fleet; set ORIGIN_CACHE to reuse a warm model cache.
SERVE_GRID = -users 16 -requests 200 -seed 1
bench-serve:
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -mode votes -json /tmp/serve_votes.json
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -mode windows -json /tmp/serve_windows.json
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -mode stream -json /tmp/serve_stream.json
	$(GO) run ./cmd/benchdiff serve-extract -o BENCH_serve.json \
		/tmp/serve_votes.json /tmp/serve_windows.json /tmp/serve_stream.json
	$(GO) run ./cmd/benchdiff serve-verify BENCH_serve.json

# Serve wire-bytes gate (run by the bench-regression CI job): re-run the
# windows and stream loadgen grids on tiny deterministic models (fast; the
# wire format does not depend on model weights), then enforce >=10x fewer
# uplink bytes per classification than JSON windows at equal accuracy. The
# committed BENCH_serve.json is verified too, so the recorded real-model
# numbers cannot rot below the bar. Appends to the bench_diff.txt report
# that verify-bench starts.
verify-bench-serve:
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -tiny-model -mode windows -json /tmp/serve_windows_tiny.json
	$(GO) run ./cmd/origin-loadgen $(SERVE_GRID) -tiny-model -mode stream -json /tmp/serve_stream_tiny.json
	$(GO) run ./cmd/benchdiff serve-extract -o /tmp/BENCH_serve_tiny.json \
		/tmp/serve_windows_tiny.json /tmp/serve_stream_tiny.json
	$(GO) run ./cmd/benchdiff serve-verify /tmp/BENCH_serve_tiny.json | tee -a bench_diff.txt
	$(GO) run ./cmd/benchdiff serve-verify BENCH_serve.json | tee -a bench_diff.txt
	$(GO) test -race -run 'TestStreamLoadgenMatchesSerialReplay' ./internal/fleet

# Drill gate (run by the drill CI job, one matrix leg per drill): run a
# built-in fault drill twice under -race on tiny deterministic models, the
# first run also replay-verified (every lineage's class sequence
# byte-identical to a fault-free single-node serial replay), then hold the
# pair to benchdiff drill-verify's bars: zero lost rounds, zero double
# classifications, 100% resume success, an availability floor, a bounded
# shed rate, anti-vacuity for every fault the plan schedules, and
# byte-identical canonical sections across the same-seed runs.
#   DRILL=day    one node: a pressure rush hour and an evening of connection
#                chaos (every stream killed mid-round, partial writes)
#   DRILL=shard  3 replicas behind the router: a mid-run replica crash and a
#                mid-run join
DRILL ?= day
DRILL_FLAGS_day = -seed 7
DRILL_FLAGS_shard = -seed 13 -replicas 3
verify-drill:
	$(if $(DRILL_FLAGS_$(DRILL)),,$(error unknown DRILL=$(DRILL) (want day or shard)))
	$(GO) run -race ./cmd/origin-scenario -scenario $(DRILL) $(DRILL_FLAGS_$(DRILL)) -tiny -verify-replay -o /tmp/slo_$(DRILL).json
	$(GO) run -race ./cmd/origin-scenario -scenario $(DRILL) $(DRILL_FLAGS_$(DRILL)) -tiny -o /tmp/slo_$(DRILL)_rerun.json
	$(GO) run ./cmd/benchdiff drill-verify /tmp/slo_$(DRILL).json /tmp/slo_$(DRILL)_rerun.json | tee -a bench_diff.txt

# Formatting and static analysis, mirroring the CI lint job. staticcheck is
# optional locally (the CI job installs it); gofmt failures list the files.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi

# Focused verification for the telemetry/concurrency layers: vet everything,
# then race-test the packages the run telemetry and worker pool touch.
verify-obs:
	$(GO) vet ./...
	$(GO) test -race ./internal/obs ./internal/sim ./internal/host

# Focused verification for the fault-injection/defense layers: vet
# everything, then race-test every package the injectors and defenses touch.
verify-fault:
	$(GO) vet ./...
	$(GO) test -race ./internal/comm ./internal/fault ./internal/host \
		./internal/schedule ./internal/sensor ./internal/sim ./internal/obs

# Focused verification for the serving stack: vet everything, then
# race-test the session manager, HTTP layer, load generator, and the
# shared-state packages they clone from (ensemble matrix, telemetry).
verify-serve:
	$(GO) vet ./...
	$(GO) test -race ./internal/fleet ./internal/serve ./internal/loadgen \
		./internal/ensemble ./internal/obs

# Short fuzz pass over every binary decoder (go test allows one -fuzz target
# per invocation, so the decoders run back to back). Covers the fixed-size
# uplink records, the variable-length stream frames, and the three sections
# of a stored session: the snapshot, its confidence matrix and the stream
# front's attachment.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeResult -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzDecodeActivation -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzDecodeStreamFrame -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzIMURoundTrip -fuzztime=5s ./internal/comm
	$(GO) test -fuzz=FuzzDecodeSessionState -fuzztime=5s ./internal/fleet
	$(GO) test -fuzz=FuzzDecodeBinaryMatrix -fuzztime=5s ./internal/ensemble
	$(GO) test -fuzz=FuzzDecodeStreamAttachment -fuzztime=5s ./internal/serve
