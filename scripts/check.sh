#!/bin/sh
# Full verification, shared by `make check` and the CI workflow: build,
# lint, race-enabled tests, the observability and flush-scheduler
# benchmarks, one smoke test per obsreport mode, the chaos campaign under
# the race detector and the SDC coverage ladder. The pinned chaos replays
# are rows of one Go golden test (TestCampaignMatrix, run by `race`).
#
# Usage: scripts/check.sh [section ...]
#   sections: build lint race bench perf report sweep chaos sdc
#             (default: all of the above; `vet` is an alias for lint)
#   nightly:  the full-depth tier on top of the default sections — the
#             CHAOS_NIGHTLY-gated O(10k) scale cells. Run explicitly
#             (`scripts/check.sh nightly`) or from the nightly CI job;
#             never part of the default list.
#   stress:   the scheduler stress tier — the wake-up and
#             execution-schedule equivalence tests and the chaos replay
#             table repeated at GOMAXPROCS 1, 2, 4 and 8, then a 300-seed
#             localized chaos sweep. Run explicitly or from the nightly
#             CI job; never part of the default list.
#
# Environment:
#   CHAOS_SEEDS  number of campaign seeds to sweep (default 36; CI's
#                per-commit job reduces this to 12, nightly runs raise it)
#
# Runs under `set -e`: the first failing command aborts the script with a
# non-zero exit, and the banner of the section it died in is the last one
# printed.
set -eu
cd "$(dirname "$0")/.."

CHAOS_SEEDS=${CHAOS_SEEDS:-36}

banner() {
    echo ""
    echo "==> $*"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_build() {
    banner "build: go build ./..., go vet -C bench ./..."
    go build ./...
    # bench/ is its own module, so ./... never reaches it: vet it here so a
    # change that breaks the benchmark's use of the program fails the
    # build section, not only CI's bench job.
    go vet -C bench ./...
}

run_lint() {
    banner "lint: gofmt, go vet, staticcheck"
    unformatted=$(gofmt -l . 2>/dev/null)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:"
        echo "$unformatted"
        exit 1
    fi
    go vet ./...
    # staticcheck is not vendored; CI's lint job installs it. Locally the
    # section degrades to gofmt + vet rather than failing the whole check
    # on a missing tool.
    if command -v staticcheck >/dev/null 2>&1; then
        staticcheck ./...
    else
        echo "staticcheck not installed; skipped (CI runs it — install with:"
        echo "  go install honnef.co/go/tools/cmd/staticcheck@latest)"
    fi
}

run_nightly() {
    # The full-depth tier: scale cells too slow for the per-commit loop.
    # CHAOS_NIGHTLY=1 un-gates TestScale8192HeatdisReplay — the O(10k)
    # acceptance cell (8192 ranks, mid-run kill, byte-identical replay
    # pair) — and TestScale1024LocalizedStormReplay, the 1024-rank
    # localized-recovery storm (three kills absorbed by the spare + rehost
    # reserve, replay ledger byte-identical across replays).
    banner "nightly: O(10k) scale cells (CHAOS_NIGHTLY=1)"
    CHAOS_NIGHTLY=1 go test -run 'TestScale' -count=1 -timeout 55m ./internal/chaos/
}

run_stress() {
    # Every blocked rank parks on the one rank scheduler; a lost or
    # doubled wake-up there is an interleaving that shows up rarely, and
    # differently at each core count. Repeat the tests that would see it
    # (lost and unconsumed wake-ups, equivalence across host schedules,
    # the chaos table minus its 1024-rank row) across GOMAXPROCS values.
    # The message log's per-stream locks and lock-free gates get the same
    # treatment: its unit tests and the localized-recovery runs.
    for procs in 1 2 4 8; do
        banner "stress: GOMAXPROCS=$procs, -count=20"
        GOMAXPROCS=$procs go test -count=20 -run 'Equiv|Wake' ./internal/mpi/
        GOMAXPROCS=$procs go test -count=20 -run 'MsgLog|Localized' ./internal/mpi/ ./internal/core/
        GOMAXPROCS=$procs go test -count=20 -short -run 'CampaignMatrix' ./internal/chaos/
    done
    # The log's replay paths under real kills: a localized-only sweep.
    # cmd/chaos exits non-zero on any violated or hung run.
    banner "stress: chaos -mode localized -seeds 300"
    go run ./cmd/chaos -mode localized -seeds 300
}

run_race() {
    banner "race: go test -race ./..."
    go test -race ./...
}

run_bench() {
    # Observability overhead and flush scheduling: the same
    # failure-injected Heatdis cells with recording off/on and
    # with unscheduled vs windowed flushing (one iteration each; a smoke
    # check that the instrumented paths stay healthy end to end).
    banner "bench: BenchmarkHeatdisObs* + BenchmarkHeatdisFlushSched (1x)"
    go test -run '^$' -bench 'BenchmarkHeatdisObs|BenchmarkHeatdisFlushSched' -benchtime 1x .
    # The Heatdis Jacobi kernel alone (ns per cell on a 1024x1024 grid),
    # timed without building the bench/ module.
    banner "bench: BenchmarkHeatdisStep (1x)"
    go test -run '^$' -bench 'BenchmarkHeatdisStep' -benchtime 1x ./internal/apps/heatdis/
    # The MiniMD neighbor build and force kernels (ns per call on one rank
    # of a 4-rank geometry).
    banner "bench: BenchmarkMiniMDNeighbors + BenchmarkMiniMDForce (1x)"
    go test -run '^$' -bench 'BenchmarkMiniMDNeighbors|BenchmarkMiniMDForce' -benchtime 1x ./internal/apps/minimd/
}

run_perf() {
    # Simulator throughput regression gate: BenchmarkSimThroughput vs the
    # checked-in baseline (machine-speed normalized; see PERFORMANCE.md).
    banner "perf: BenchmarkSimThroughput regression gate"
    sh scripts/bench_gate.sh "$tmp/bench-throughput.txt"
}

run_report() {
    # Recovery-timeline pipeline: export a failure-injected run's events
    # (with the flush scheduler enabled) and analyze them with obsreport.
    banner "report: heatdis -events | obsreport"
    go run ./cmd/heatdis -ranks 8 -data-mb 64 -iters 30 -interval 5 \
        -fail -flush-window 2 -events "$tmp/events.jsonl"
    go run ./cmd/obsreport "$tmp/events.jsonl" | grep -q 'unrepaired 0'
    go run ./cmd/obsreport -json "$tmp/events.jsonl" > "$tmp/report.json"
    grep -q '"failures_repaired": 1' "$tmp/report.json"
    grep -q '"failures_unrepaired": 0' "$tmp/report.json"

    # The same pipeline through cmd/minimd, the other user of the shared
    # command driver (harness.Driver), exporting to stdout so the summary
    # must move to stderr and the pipe carries pure JSONL.
    banner "report: minimd -events - | obsreport"
    go run ./cmd/minimd -ranks 4 -size 50 -steps 12 -interval 3 \
        -fail -events - | go run ./cmd/obsreport -json > "$tmp/md-report.json"
    grep -q '"failures_repaired": 1' "$tmp/md-report.json"
    grep -q '"failures_unrepaired": 0' "$tmp/md-report.json"
}

run_sweep() {
    # Cross-run sweep analytics + timeline rendering: persist a 12-seed
    # campaign with -out, aggregate it with obsreport -sweep, and render
    # the storm-shrink seed's Gantt (TestTimelineGoldenSeed7 pins its
    # bytes) plus the SVG figure form.
    banner "sweep: chaos -seeds 12 -out + obsreport -sweep"
    go run ./cmd/chaos -seeds 12 -out "$tmp/runs"
    test -f "$tmp/runs/manifest.json"
    go run ./cmd/obsreport -sweep "$tmp/runs" > "$tmp/sweep.txt"
    grep -q 'sweep: 12 runs' "$tmp/sweep.txt"
    grep -q 'per-(mode × app) phase durations' "$tmp/sweep.txt"
    grep -q 'storm-shrink' "$tmp/sweep.txt"
    # Seeds 10/11 land in sdc cells, so the sweep's SDC ledger must render.
    grep -q 'sdc: injected' "$tmp/sweep.txt"
    go run ./cmd/obsreport -json -sweep "$tmp/runs" | grep -q '"critical_path"'

    banner "sweep: seed 7 timeline (ASCII + SVG)"
    go run ./cmd/obsreport -timeline "$tmp/runs/seed-7.jsonl" | grep -q '(shrunk g'
    go run ./cmd/figures -fig timeline -seed 7 > "$tmp/timeline.svg"
    grep -q '<svg' "$tmp/timeline.svg"
}

run_chaos() {
    # Chaos campaign: an adversarial sweep over the full mode x app matrix
    # under the race detector (kills inside checkpoint regions and flush
    # windows, nested failures, correlated node loss, spare exhaustion
    # with and without shrinking), with the flush scheduler on in every
    # cell. Each cell's exact outcome is pinned by TestCampaignMatrix.
    banner "chaos: $CHAOS_SEEDS-seed campaign under -race"
    go run -race ./cmd/chaos -seeds "$CHAOS_SEEDS" -json "$tmp/campaign.json"
    grep -q '"violated": 0' "$tmp/campaign.json"
}

run_sdc() {
    # Silent-data-corruption layer: regenerate the detection-coverage ×
    # overhead matrix and assert the escalation ladder's endpoints (the
    # ladder ordering itself is enforced inside `figures -fig sdc`, which
    # exits non-zero on a violation). The sdc campaign cells' flip ledgers
    # are rows of TestCampaignMatrix.
    banner "sdc: figures -fig sdc -quick (coverage ladder)"
    go run ./cmd/figures -fig sdc -quick > "$tmp/sdc.txt"
    # Unprotected cells detect nothing; vote cells reach full coverage.
    grep -q 'heatdis	none	.*	0.000	' "$tmp/sdc.txt"
    grep -q 'heatdis	vote	.*	1.000	' "$tmp/sdc.txt"
    grep -q 'minimd	vote	.*	1.000	' "$tmp/sdc.txt"
}

sections=${*:-"build lint race bench perf report sweep chaos sdc"}
for s in $sections; do
    case "$s" in
    build)    run_build ;;
    lint|vet) run_lint ;;
    race)     run_race ;;
    bench)    run_bench ;;
    perf)     run_perf ;;
    report)   run_report ;;
    sweep)    run_sweep ;;
    chaos)    run_chaos ;;
    sdc)      run_sdc ;;
    nightly)  run_nightly ;;
    stress)   run_stress ;;
    *)
        echo "unknown section: $s (want build|lint|race|bench|perf|report|sweep|chaos|sdc|nightly|stress)" >&2
        exit 2
        ;;
    esac
done

banner "all sections passed: $sections"
