#!/bin/sh
# Full verification, shared by `make check` and the CI workflow: build,
# lint, race-enabled tests, the observability and flush-scheduler
# benchmarks, an end-to-end obsreport smoke test, and the chaos campaign
# with pinned-seed replays.
#
# Usage: scripts/check.sh [section ...]
#   sections: build lint race bench perf report sweep chaos sdc
#             (default: all of the above; `vet` is an alias for lint)
#   nightly:  the full-depth tier on top of the default sections — the
#             CHAOS_NIGHTLY-gated O(10k) scale cells. Run explicitly
#             (`scripts/check.sh nightly`) or from the nightly CI job;
#             never part of the default list.
#   stress:   the scheduler stress tier — the wake-up, slot-conservation
#             and exec-equivalence tests repeated at GOMAXPROCS 1, 2, 4
#             and 8. Run explicitly or from the nightly CI job; never
#             part of the default list.
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
    # CHAOS_NIGHTLY=1 un-gates TestScale8192HeatdisReplay — the worker-pool
    # O(10k) acceptance cell (8192 ranks, mid-run kill, byte-identical
    # replay pair) — and TestScale1024LocalizedStormReplay, the 1024-rank
    # localized-recovery storm (three kills absorbed by the spare + rehost
    # reserve under ExecPool, replay ledger byte-identical across replays).
    banner "nightly: O(10k) scale cells (CHAOS_NIGHTLY=1)"
    CHAOS_NIGHTLY=1 go test -run 'TestScale' -count=1 -timeout 55m ./internal/chaos/
}

run_stress() {
    # Every blocked rank parks on the one rank scheduler; a lost or
    # doubled wake-up there is an interleaving that shows up rarely, and
    # differently at each core count. Repeat the tests that would see it
    # (lost wake-ups, K-slot conservation, goroutine/pool equivalence and
    # seeded replay) across GOMAXPROCS values.
    for procs in 1 2 4 8; do
        banner "stress: GOMAXPROCS=$procs, -count=20"
        GOMAXPROCS=$procs go test -count=20 -run 'Equiv|Wake|Conserv' ./internal/mpi/
        GOMAXPROCS=$procs go test -count=20 -run 'ExecModeEquivalence|SeedReplayIsByteStable' ./internal/chaos/
    done
}

run_race() {
    banner "race: go test -race ./..."
    go test -race ./...
}

run_bench() {
    # Observability overhead and flush scheduling: the same
    # failure-injected Heatdis cells with recording off/on/streaming and
    # with unscheduled vs windowed flushing (one iteration each; a smoke
    # check that the instrumented paths stay healthy end to end).
    banner "bench: BenchmarkHeatdisObs* + BenchmarkHeatdisFlushSched (1x)"
    go test -run '^$' -bench 'BenchmarkHeatdisObs|BenchmarkHeatdisFlushSched' -benchtime 1x .
}

run_perf() {
    # Simulator throughput regression gate: BenchmarkSimThroughput vs the
    # checked-in baseline (machine-speed normalized; see PERFORMANCE.md).
    banner "perf: BenchmarkSimThroughput regression gate"
    sh scripts/bench_gate.sh "$tmp/bench-throughput.txt"
}

run_report() {
    # Recovery-timeline pipeline: stream a failure-injected run's events
    # (with the flush scheduler enabled) and analyze them with obsreport.
    banner "report: heatdis -stream | obsreport"
    go run ./cmd/heatdis -ranks 8 -data-mb 64 -iters 30 -interval 5 \
        -fail -flush-window 2 -stream -events "$tmp/events.jsonl"
    go run ./cmd/obsreport "$tmp/events.jsonl" | grep -q 'unrepaired 0'
    go run ./cmd/obsreport -json "$tmp/events.jsonl" > "$tmp/report.json"
    grep -q '"failures_repaired": 1' "$tmp/report.json"
    grep -q '"failures_unrepaired": 0' "$tmp/report.json"

    # The same pipeline through cmd/minimd, the other user of the shared
    # command driver (harness.Driver), streaming to stdout so the summary
    # must move to stderr and the pipe carries pure JSONL.
    banner "report: minimd -stream -events - | obsreport"
    go run ./cmd/minimd -ranks 4 -size 50 -steps 12 -interval 3 \
        -fail -stream -events - | go run ./cmd/obsreport -json > "$tmp/md-report.json"
    grep -q '"failures_repaired": 1' "$tmp/md-report.json"
    grep -q '"failures_unrepaired": 0' "$tmp/md-report.json"
}

run_sweep() {
    # Cross-run sweep analytics + timeline rendering: persist a 12-seed
    # campaign with -out, aggregate it with obsreport -sweep, and render
    # the pinned storm-shrink seed's Gantt twice (byte-identical by the
    # replay invariant) plus the SVG figure form.
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

    banner "sweep: seed 7 timeline (ASCII x2 + SVG)"
    go run ./cmd/obsreport -timeline "$tmp/runs/seed-7.jsonl" > "$tmp/tl1.txt"
    go run ./cmd/obsreport -timeline "$tmp/runs/seed-7.jsonl" > "$tmp/tl2.txt"
    cmp "$tmp/tl1.txt" "$tmp/tl2.txt"
    grep -q '(shrunk g' "$tmp/tl1.txt"
    go run ./cmd/figures -fig timeline -seed 7 > "$tmp/timeline.svg"
    grep -q '<svg' "$tmp/timeline.svg"
}

run_chaos() {
    # Chaos campaign: an adversarial sweep over the full mode x app matrix
    # under the race detector (kills inside checkpoint regions and flush
    # windows, nested failures, correlated node loss, spare exhaustion
    # with and without shrinking), with the flush scheduler on in every
    # cell. Then replay pinned seeds and cross-check their reports:
    #   seed 7  storm-shrink cell; obsreport must surface the shrink
    #           events and per-span shrunk-slot accounting
    #   seed 3  flush-mode cell with a node crash; the scheduler's
    #           queued/started accounting must replay exactly
    #   seed 9  storm-wave cell (heatdis, 32 ranks): multi-wave kill
    #           schedule past spare exhaustion — one mixed rebuild, then
    #           pure shrinks; final size and shrink count must replay
    #   seed 19 storm-wave cell (minimd): the allreduce-synchronized
    #           flush-storm cell that caught the arrival-order PFS
    #           congestion leak; its flush ledger must replay exactly
    #   seed 14 localized cell (heatdis): single kill under the
    #           message-logging strategy — the replacement's replay
    #           ledger must replay exactly, and the pool exec mode must
    #           produce a bitwise-identical report (cross-exec pin)
    #   seed 31 localized-shrink cell (minimd): three kills absorbed by
    #           one spare plus the two-rank rehost reserve, so the log
    #           stays live and recovery stays localized throughout
    banner "chaos: $CHAOS_SEEDS-seed campaign under -race"
    go run -race ./cmd/chaos -seeds "$CHAOS_SEEDS" -json "$tmp/campaign.json"
    grep -q '"violated": 0' "$tmp/campaign.json"

    banner "chaos: seed 7 replay (storm shrink)"
    go run ./cmd/chaos -seed 7 -json "$tmp/chaosrun.json" -events "$tmp/chaos-events.jsonl"
    grep -q '"shrunk": 2' "$tmp/chaosrun.json"
    go run ./cmd/obsreport "$tmp/chaos-events.jsonl" | grep -q 'shrink events: 2'

    banner "chaos: seed 3 replay (flush scheduler, node crash)"
    go run ./cmd/chaos -seed 3 -json "$tmp/flushrun.json"
    grep -q '"flushes_queued": 20' "$tmp/flushrun.json"
    # One queued flush's start coincides exactly with the node crash;
    # strictly-lazy commitment (flushsched.go advanceLocked) discards it
    # rather than racing it into the window, so 19 of 20 start.
    grep -q '"flushes_started": 19' "$tmp/flushrun.json"

    banner "chaos: seed 9 replay (storm wave, heatdis)"
    go run ./cmd/chaos -seed 9 -json "$tmp/stormrun.json" -events "$tmp/storm-events.jsonl"
    grep -q '"shrunk": 3' "$tmp/stormrun.json"
    grep -q '"mpi_shrinks": 2' "$tmp/stormrun.json"
    grep -q '"final_size": 29' "$tmp/stormrun.json"
    go run ./cmd/obsreport "$tmp/storm-events.jsonl" | grep -q 'shrink events: 2'

    # The campaign matrix has grown since this seed was pinned, remapping
    # seed 19's natural cell; -mode/-app re-pin the original cell (the RNG
    # stream depends only on the seed, so the schedule replays unchanged).
    banner "chaos: seed 19 replay (storm wave, minimd flush storm)"
    go run ./cmd/chaos -seed 19 -mode storm-wave -app minimd -json "$tmp/stormrun2.json"
    grep -q '"shrunk": 5' "$tmp/stormrun2.json"
    grep -q '"mpi_shrinks": 3' "$tmp/stormrun2.json"
    grep -q '"flushes_queued": 175' "$tmp/stormrun2.json"
    grep -q '"flushes_started": 175' "$tmp/stormrun2.json"

    banner "chaos: seed 14 replay (localized, heatdis; goroutine vs pool)"
    go run ./cmd/chaos -seed 14 -json "$tmp/loc.json"
    grep -q '"failures_repaired": 1' "$tmp/loc.json"
    grep -q '"msgs_logged": 168' "$tmp/loc.json"
    grep -q '"msgs_replayed": 19' "$tmp/loc.json"
    grep -q '"msgs_trimmed": 161' "$tmp/loc.json"
    # Exec scheduling must not change the virtual outcome: the pool-mode
    # report is bitwise identical apart from the echoed -exec override.
    go run ./cmd/chaos -seed 14 -exec pool -json "$tmp/loc-pool.json"
    grep -v '"exec"' "$tmp/loc-pool.json" | cmp - "$tmp/loc.json"

    banner "chaos: seed 31 replay (localized-shrink, minimd rehost reserve)"
    go run ./cmd/chaos -seed 31 -json "$tmp/loc-shrink.json"
    grep -q '"failures_repaired": 3' "$tmp/loc-shrink.json"
    grep -q '"rehosts": 2' "$tmp/loc-shrink.json"
    grep -q '"msgs_replayed": 42' "$tmp/loc-shrink.json"
    # Reserve substitutions kept the communicator uncompacted.
    grep -q '"shrunk": 0' "$tmp/loc-shrink.json"
    grep -q '"final_size": 4' "$tmp/loc-shrink.json"

    # The O(1k)-rank smoke cell: the storm-wave family at CHAOS_SCALE=1024.
    # Multi-wave spare exhaustion, shrink repairs, and a 1024-rank flush
    # ledger must replay exactly at this width too (the tree collective
    # engine's scaled regression cell; the 4096-rank acceptance cell runs
    # in the race section via TestScale4096HeatdisReplay).
    banner "chaos: seed 9 at 1024 ranks (CHAOS_SCALE=1024 smoke)"
    go run ./cmd/chaos -seed 9 -storm-ranks 1024 -timeout 5m -json "$tmp/storm1024.json"
    grep -q '"shrunk": 3' "$tmp/storm1024.json"
    grep -q '"mpi_shrinks": 2' "$tmp/storm1024.json"
    grep -q '"final_size": 1021' "$tmp/storm1024.json"
    grep -q '"flushes_queued": 4243' "$tmp/storm1024.json"
    grep -q '"flushes_started": 4243' "$tmp/storm1024.json"
}

run_sdc() {
    # Silent-data-corruption layer: replay pinned seeds from the four sdc
    # campaign modes and cross-check the flip ledger, then regenerate the
    # detection-coverage × overhead matrix and assert the escalation
    # ladder's endpoints (the ladder ordering itself is enforced inside
    # `figures -fig sdc`, which exits non-zero on a violation):
    #   seed 10 sdc-region cell (heatdis, replay policy): the drawn flip
    #           is in-bounds, so it must escape the validator and be
    #           accounted as escaped, not detected
    #   seed 25 sdc-vote cell (minimd): duplicate-and-vote catches the
    #           bitwise divergence and corrects it
    #   seed 12 sdc-blob cell (heatdis): the CRC rejects the corrupted
    #           checkpoint blob and recovery falls back to the previous
    #           good version
    #   seed 27 sdc-mixed cell (minimd): a rank kill and a bit flip in
    #           the same run — both the Fenix repair and the SDC
    #           correction must land
    banner "sdc: seed 10 replay (sdc-region escape accounting)"
    go run ./cmd/chaos -seed 10 -json "$tmp/sdcregion.json"
    grep -q '"flips_fired": 1' "$tmp/sdcregion.json"
    grep -q '"sdc_injected": 1' "$tmp/sdcregion.json"
    grep -q '"sdc_escaped": 1' "$tmp/sdcregion.json"

    banner "sdc: seed 25 replay (sdc-vote correction)"
    go run ./cmd/chaos -seed 25 -json "$tmp/sdcvote.json" -events "$tmp/sdc-events.jsonl"
    grep -q '"sdc_detected": 1' "$tmp/sdcvote.json"
    grep -q '"sdc_corrected": 1' "$tmp/sdcvote.json"
    go run ./cmd/obsreport "$tmp/sdc-events.jsonl" | grep -q 'sdc: injected 1, detected 1, corrected 1'

    banner "sdc: seed 12 replay (sdc-blob checkpoint rejection)"
    go run ./cmd/chaos -seed 12 -json "$tmp/sdcblob.json"
    grep -q '"sdc_detected": 1' "$tmp/sdcblob.json"
    grep -q '"sdc_corrected": 1' "$tmp/sdcblob.json"

    banner "sdc: seed 27 replay (sdc-mixed kill + flip)"
    go run ./cmd/chaos -seed 27 -json "$tmp/sdcmixed.json"
    grep -q '"failures_repaired": 1' "$tmp/sdcmixed.json"
    grep -q '"sdc_detected": 1' "$tmp/sdcmixed.json"
    grep -q '"sdc_corrected": 1' "$tmp/sdcmixed.json"

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
