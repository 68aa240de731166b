GO ?= go

.PHONY: all build lint vet test race bench bench-smoke perf check chaos sweep figures report clean

all: check

build:
	$(GO) build ./...

# gofmt + go vet + staticcheck (skipped gracefully when not installed);
# the same section CI's lint job runs.
lint:
	sh scripts/check.sh lint

vet: lint

test:
	$(GO) test ./...

# The observability layer is exercised from many rank goroutines; keep it
# (and everything else) race-clean.
race:
	$(GO) test -race ./...

# Single-iteration sweep of the observability-overhead and flush-scheduler
# benchmarks (virtual-time metrics; host ns/op is incidental), one pass of
# the Heatdis Jacobi kernel (host ns per cell) and of the MiniMD neighbor
# build and force kernels, plus the simulator-throughput benchmark
# (host-time metrics; see PERFORMANCE.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkHeatdisObs|BenchmarkHeatdisFlushSched' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkHeatdisStep' -benchtime 1x ./internal/apps/heatdis/
	$(GO) test -run '^$$' -bench 'BenchmarkMiniMDNeighbors|BenchmarkMiniMDForce' -benchtime 1x ./internal/apps/minimd/
	$(GO) test -run '^$$' -bench 'BenchmarkSimThroughput' -benchtime 1s ./internal/mpi/

# Vet and smoke-test the repository benchmark (bench/ is its own module,
# so `./...` never reaches it): catalogue == BENCHMARK.json and one tiny
# run of every metric (a few seconds). The benchmark itself is
# `go run -C bench . -all`, see bench/README.md.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench .

# Simulator-throughput regression gate: fails if BenchmarkSimThroughput
# falls more than 20% below the checked-in baseline (normalized by
# BenchmarkMachineProbe), or if the engine's ns/rank-step at 4096 ranks
# exceeds 3x its 256-rank value.
perf:
	sh scripts/bench_gate.sh

# Full verification, shared with CI. Sections and the CHAOS_SEEDS override
# are documented in scripts/check.sh.
check:
	sh scripts/check.sh

# Short adversarial campaign under the race detector: fixed seeds sweeping
# the full mode × app matrix (kills inside checkpoint regions and flush
# windows, nested failures, spare-pool exhaustion with and without
# shrinking, multi-wave exhaustion storms). Fails on any hang or
# cross-layer invariant violation; replay a finding with
# `go run ./cmd/chaos -seed <k>`. CHAOS_SCALE widens the storm-wave
# cells' world (e.g. `make chaos CHAOS_SCALE=64` for the 64-rank storm).
CHAOS_SCALE ?= 32
chaos:
	$(GO) run -race ./cmd/chaos -seeds 36 -storm-ranks $(CHAOS_SCALE)

# Cross-run sweep analytics: persist a 12-seed campaign's event logs
# (plus manifest.json) and aggregate them into the per-(mode × app)
# phase-duration table, then render one seed's recovery Gantt.
sweep:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/chaos -seeds 12 -out "$$tmp/runs" && \
	$(GO) run ./cmd/obsreport -sweep "$$tmp/runs" && \
	$(GO) run ./cmd/obsreport -timeline "$$tmp/runs/seed-7.jsonl"

figures:
	$(GO) run ./cmd/figures

# Run a failure-injected Heatdis cell, export its event log and print its
# recovery-timeline report.
report:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/heatdis -ranks 8 -data-mb 64 -iters 30 -interval 5 \
		-fail -events "$$tmp/events.jsonl" && \
	$(GO) run ./cmd/obsreport "$$tmp/events.jsonl"

clean:
	$(GO) clean ./...
