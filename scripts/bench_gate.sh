#!/bin/sh
# Simulator-throughput regression gate (see PERFORMANCE.md).
#
# Runs the BenchmarkSimThroughput family plus BenchmarkMachineProbe, and
# enforces two bounds:
#
#   1. tree-engine scaling: ns/rank-step at 4096 ranks <= 3.0x the value
#      at 256 ranks, both from this run. The engine's per-arrival work is
#      O(log P), so the ratio stays near 2x (measured 1.4x-2.3x); an
#      O(P) scan per arrival pushes it well past the bound.
#      Machine-independent: both cells run on the same host.
#   2. tree events/sec at 256 ranks >= 80% of the checked-in baseline,
#      after scaling the baseline by this machine's probe speed relative
#      to the reference machine. The probe is a stdlib-only barrier over
#      256 goroutines (a mutex and per-goroutine channels) that shares no
#      code with the simulator, so its throughput is a pure machine-speed
#      measure; normalizing by it turns the absolute baseline into a
#      relative regression gate that works on slower CI hosts.
#
# Besides the raw `go test -bench` text, the gate emits a machine-readable
# bench-throughput.json ({"gomaxprocs": N, "cells": [...]}: one record per
# cell with events/sec, ns/rank-step, allocs/op, best of -count runs; the
# core count records the parallelism the cells ran with) and prints a
# baseline-vs-current delta table, so CI artifacts carry the trend without
# re-parsing bench text.
#
# Usage: scripts/bench_gate.sh [output-file] [json-file]
#   output-file: where to tee the raw `go test -bench` output (default
#   bench-throughput.txt; CI uploads it as an artifact).
#   json-file: where to write the per-cell JSON (default
#   bench-throughput.json next to output-file).
set -eu
cd "$(dirname "$0")/.."

out=${1:-bench-throughput.txt}
json=${2:-bench-throughput.json}
baseline=scripts/bench_baseline.txt

# The effective parallelism the benchmarks ran with: GOMAXPROCS if the
# caller pinned it, otherwise the host's online core count. Recorded in
# the JSON artifact.
cores=${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}

go test -run '^$' -bench '(BenchmarkSimThroughput|BenchmarkMachineProbe)$/ranks=(256|1024|4096)' \
    -benchtime=1s -count=3 ./internal/mpi/ | tee "$out"

awk -v jsonfile="$json" -v cores="$cores" '
# Pass 1: the baseline file (key events/sec).
FNR == NR {
    if ($0 !~ /^#/ && NF >= 2) base[$1] = $2
    next
}
# Pass 2: benchmark lines. Cell key = "tree" + rank count, or "probe";
# best of the -count runs per cell (max events/sec, min ns/rank-step and
# allocs/op: scheduler hiccups only subtract).
/^Benchmark(SimThroughput|MachineProbe)/ {
    if ($1 ~ /^BenchmarkMachineProbe\//) { cell = "probe"; ranks = 256 }
    else {
        match($1, /ranks=[0-9]+/)
        ranks = substr($1, RSTART + 6, RLENGTH - 6)
        cell = "tree" ranks
    }
    ev = ns = al = ""
    for (i = 1; i < NF; i++) {
        if ($(i+1) == "events/sec")   ev = $i
        if ($(i+1) == "ns/rank-step") ns = $i
        if ($(i+1) == "allocs/op")    al = $i
    }
    if (ev == "") next
    if (!(cell in evs)) { order[++ncells] = cell; rank[cell] = ranks }
    if (ev + 0 > evs[cell] + 0) evs[cell] = ev
    if (nss[cell] == "" || ns + 0 < nss[cell] + 0) nss[cell] = ns
    if (als[cell] == "" || al + 0 < als[cell] + 0) als[cell] = al
}
END {
    # Machine-readable per-cell records for the CI trend artifact. The
    # gomaxprocs field lets trend consumers separate single-core and
    # multicore runs.
    printf "{\"gomaxprocs\": %d,\n \"cells\": [", cores > jsonfile
    for (i = 1; i <= ncells; i++) {
        c = order[i]
        printf "%s\n  {\"cell\": \"%s\", \"ranks\": %d, \"events_per_sec\": %.0f, \"ns_per_rank_step\": %.1f, \"allocs_per_op\": %d}", \
            (i > 1 ? "," : ""), c, rank[c], evs[c], nss[c], als[c] >> jsonfile
    }
    printf "\n]}\n" >> jsonfile

    if (evs["tree256"] + 0 == 0 || evs["probe"] + 0 == 0 || evs["tree4096"] + 0 == 0) {
        print "bench_gate: could not parse events/sec for all gated cells" > "/dev/stderr"
        exit 2
    }

    # Baseline-vs-current delta table (machine-normalized by the probe,
    # so the delta is meaningful on hosts other than the reference
    # machine; the probe row itself is the raw probe ratio).
    scale = evs["probe"] / base["probe"]
    printf "bench_gate: machine speed %.2fx of reference (probe)\n", scale
    printf "bench_gate: %-10s %12s %12s %8s\n", "cell", "baseline*", "current", "delta"
    for (i = 1; i <= ncells; i++) {
        c = order[i]
        if (!(c in base)) continue
        b = base[c] * (c == "probe" ? 1 : scale)
        printf "bench_gate: %-10s %12.0f %12.0f %+7.1f%%\n", c, b, evs[c], 100 * (evs[c] - b) / b
    }

    fail = 0
    kmax = 3.0
    growth = nss["tree4096"] / nss["tree256"]
    printf "bench_gate: tree ns/rank-step 4096/256 ranks %.2fx (ceiling %.1fx)\n", growth, kmax
    if (growth > kmax) {
        printf "bench_gate: FAIL tree ns/rank-step grows %.2fx from 256 to 4096 ranks, above the %.1fx ceiling\n", \
            growth, kmax
        fail = 1
    }
    if (evs["tree256"] < 0.8 * base["tree256"] * scale) {
        printf "bench_gate: FAIL tree256 throughput %.0f below 80%% of scaled baseline %.0f\n", \
            evs["tree256"], base["tree256"] * scale
        fail = 1
    }
    exit fail
}' "$baseline" "$out"
echo "bench_gate: ok"
