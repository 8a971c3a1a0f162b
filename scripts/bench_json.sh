#!/bin/sh
# bench_json.sh — run the engine micro-benchmarks, the TPC-H per-query
# benchmarks, the checkpoint/blobstore persistence benchmarks, and the
# suspension-strategy benchmarks (lineage seal/replay), and emit a
# machine-readable BENCH_engine.json: ns/op, B/op and allocs/op per
# benchmark, plus per-query wall times. CI runs this as a smoke test (and
# archives the JSON as an artifact), then scripts/bench_compare.sh diffs it
# against the committed baseline and gates regressions. The sample is taken
# at the benchtime the committed baseline records (unless BENCHTIME says
# otherwise), and the engine and TPC-H sections — the ones whose allocs/op
# are gated to the count — always at -cpu 1: a first iteration warms the
# pools and every worker brings its own local state, so allocs/op at 1x and
# at 5x, or on one core and on two, are different numbers, and comparing
# them gated the runner, not the code. (The baseline's HashAggregate 458 and
# Q17 898 allocs/op reproduce exactly at -cpu 1 and at no other count.) The
# other sections run on the runner's cores, so the store's chunk pipeline
# and the multi-worker paths stay under the gate.
#
# Usage: sh scripts/bench_json.sh [output.json]
set -eu

OUT=${1:-BENCH_engine.json}
BENCHTIME=${BENCHTIME:-$(git show HEAD:BENCH_engine.json 2>/dev/null | sed -n 's/^  "benchtime": "\(.*\)",$/\1/p')}
BENCHTIME=${BENCHTIME:-1x}
# On a small (single-core) container, a long benchmark run picks up GC
# and scheduling debris from its neighbors; BENCH_COUNT>1 repeats every
# engine/tpch/checkpoint/strategy benchmark and keeps the
# fastest run per name — the same min-of-counts the controlplane section
# has always used. CI smoke stays at 1; use BENCH_COUNT=3 when
# recording a committed baseline.
BENCH_COUNT=${BENCH_COUNT:-1}
# The strategy benchmarks time a single fsync-bounded seal, so one slow
# fsync outlier can swing the lineage acceptance ratio by an order of
# magnitude; always take at least 20 samples regardless of BENCHTIME.
STRAT_BENCHTIME=${STRAT_BENCHTIME:-20x}
# The blobstore benchmarks are gated (bench_compare.sh) and cost a few
# milliseconds per op, so one iteration is mostly scheduling noise and ten
# are cheap; always take ten, three times, and keep the fastest run per
# name — the baseline is recorded the same way.
BLOB_BENCHTIME=${BLOB_BENCHTIME:-10x}
BLOB_COUNT=${BLOB_COUNT:-3}
# The controlplane proxy benchmarks pay a real loopback HTTP round trip
# per op, so single iterations are all noise; always take a few hundred
# samples, several times, and keep the best run (the gate reads the
# paired overhead-pct metric, which machine-load drift cannot inflate
# in the min-of-counts).
CP_BENCHTIME=${CP_BENCHTIME:-200x}
CP_COUNT=${CP_COUNT:-3}
# The fold benchmarks serve whole TPC-H bursts per iteration, so single
# iterations carry multi-millisecond scheduling noise; take a few
# iterations, several times, and keep the best run per name. The gate
# reads the paired fold-speedup / single-overhead-pct metrics, which are
# ratios of interleaved runs — machine-load drift largely cancels, and
# min-of-counts removes what remains.
FOLD_BENCHTIME=${FOLD_BENCHTIME:-3x}
FOLD_COUNT=${FOLD_COUNT:-3}
GO=${GO:-go}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO test ./internal/engine -run '^$' -bench . -benchmem -cpu 1 -benchtime "$BENCHTIME" -count "$BENCH_COUNT" \
    | tee "$tmp/engine.txt"
$GO test ./internal/tpch -run '^$' -bench 'BenchmarkTPCH/' -benchmem -cpu 1 -benchtime "$BENCHTIME" -count "$BENCH_COUNT" \
    | tee "$tmp/tpch.txt"
$GO test ./internal/checkpoint -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" \
    | tee "$tmp/checkpoint.txt"
$GO test ./internal/blobstore -run '^$' -bench . -benchmem -benchtime "$BLOB_BENCHTIME" -count "$BLOB_COUNT" \
    | tee "$tmp/blobstore.txt"
$GO test ./internal/strategy -run '^$' -bench 'Lineage' -benchmem -benchtime "$STRAT_BENCHTIME" -count "$BENCH_COUNT" \
    | tee "$tmp/strategy.txt"
$GO test ./internal/controlplane -run '^$' -bench 'BenchmarkProxy' -benchmem \
    -benchtime "$CP_BENCHTIME" -count "$CP_COUNT" \
    | tee "$tmp/controlplane.txt"
$GO test ./internal/server -run '^$' -bench 'BenchmarkFold' \
    -benchtime "$FOLD_BENCHTIME" -count "$FOLD_COUNT" \
    | tee "$tmp/fold.txt"

awk -v benchtime="$BENCHTIME" -v enginefile="$tmp/engine.txt" -v tpchfile="$tmp/tpch.txt" \
    -v ckptfile="$tmp/checkpoint.txt" -v blobfile="$tmp/blobstore.txt" \
    -v stratfile="$tmp/strategy.txt" -v cpfile="$tmp/controlplane.txt" \
    -v foldfile="$tmp/fold.txt" '
# emit_bench keeps the fastest run per benchmark name when -count
# repeats them (min-of-counts; B/op and allocs/op ride along from the
# fastest run — allocation counts are deterministic across counts).
function emit_bench(file, label,    line, n, parts, name, i, nn, names, ns, by, al, hasmem) {
    nn = 0
    while ((getline line < file) > 0) {
        if (line !~ /^Benchmark/) continue
        n = split(line, parts, /[ \t]+/)
        # parts: name iters ns "ns/op" [mbps "MB/s"] [bytes "B/op" allocs "allocs/op"]
        name = parts[1]
        sub(/^Benchmark/, "", name)
        sub(/-[0-9]+$/, "", name)      # strip GOMAXPROCS suffix
        if (label == "tpch") sub(/^TPCH\//, "", name)
        if (!(name in ns)) { names[++nn] = name; ns[name] = -1 }
        if (ns[name] >= 0 && parts[3] + 0 >= ns[name]) continue
        ns[name] = parts[3] + 0
        # B/op and allocs/op are found by unit, not position: a benchmark
        # that calls SetBytes prints an MB/s pair ahead of them.
        for (i = 5; i < n; i += 2) {
            if (parts[i + 1] == "B/op") { by[name] = parts[i] + 0; hasmem[name] = 1 }
            if (parts[i + 1] == "allocs/op") al[name] = parts[i] + 0
        }
    }
    close(file)
    printf "  \"%s\": [", label
    for (i = 1; i <= nn; i++) {
        name = names[i]
        if (i > 1) printf ","
        printf "\n    {\"name\": \"%s\", \"ns_per_op\": %g", name, ns[name]
        if (name in hasmem)
            printf ", \"bytes_per_op\": %g, \"allocs_per_op\": %g", by[name], al[name]
        printf "}"
    }
    printf "\n  ]"
}
# emit_cp parses the controlplane run, which differs from the others in
# two ways: -count repeats every benchmark (we keep the fastest run per
# name — min-of-counts is robust against machine-load drift), and the
# paired ProxyOverhead benchmark carries a custom overhead-pct metric,
# so units are located by scanning value/unit pairs, not by position.
function emit_cp(file, label,    line, n, parts, name, i, first, nn, names, ns, ov, hasov) {
    nn = 0
    while ((getline line < file) > 0) {
        if (line !~ /^Benchmark/) continue
        n = split(line, parts, /[ \t]+/)
        name = parts[1]
        sub(/^Benchmark/, "", name)
        sub(/-[0-9]+$/, "", name)
        if (!(name in ns)) { names[++nn] = name; ns[name] = -1 }
        for (i = 3; i < n; i += 2) {
            if (parts[i + 1] == "ns/op" && (ns[name] < 0 || parts[i] + 0 < ns[name]))
                ns[name] = parts[i] + 0
            if (parts[i + 1] == "overhead-pct" && (!(name in hasov) || parts[i] + 0 < ov[name])) {
                ov[name] = parts[i] + 0
                hasov[name] = 1
            }
        }
    }
    close(file)
    printf "  \"%s\": [", label
    for (i = 1; i <= nn; i++) {
        name = names[i]
        if (i > 1) printf ","
        printf "\n    {\"name\": \"%s\", \"ns_per_op\": %g", name, ns[name]
        if (name in hasov) printf ", \"overhead_pct\": %g", ov[name]
        printf "}"
    }
    printf "\n  ]"
}
# emit_fold parses the shared-execution run. Like emit_cp it scans
# value/unit pairs for custom metrics; per name it keeps the fastest run
# by ns/op, the BEST fold-speedup (max — noise only loses sharing), and
# the best single-overhead-pct (min — noise only inflates overhead).
function emit_fold(file, label,    line, n, parts, name, i, nn, names, ns, sp, ov, hassp, hasov) {
    nn = 0
    while ((getline line < file) > 0) {
        if (line !~ /^Benchmark/) continue
        n = split(line, parts, /[ \t]+/)
        name = parts[1]
        sub(/^Benchmark/, "", name)
        sub(/-[0-9]+$/, "", name)
        if (!(name in ns)) { names[++nn] = name; ns[name] = -1 }
        for (i = 3; i < n; i += 2) {
            if (parts[i + 1] == "ns/op" && (ns[name] < 0 || parts[i] + 0 < ns[name]))
                ns[name] = parts[i] + 0
            if (parts[i + 1] == "fold-speedup" && (!(name in hassp) || parts[i] + 0 > sp[name])) {
                sp[name] = parts[i] + 0
                hassp[name] = 1
            }
            if (parts[i + 1] == "single-overhead-pct" && (!(name in hasov) || parts[i] + 0 < ov[name])) {
                ov[name] = parts[i] + 0
                hasov[name] = 1
            }
        }
    }
    close(file)
    printf "  \"%s\": [", label
    for (i = 1; i <= nn; i++) {
        name = names[i]
        if (i > 1) printf ","
        printf "\n    {\"name\": \"%s\", \"ns_per_op\": %g", name, ns[name]
        if (name in hassp) printf ", \"fold_speedup\": %g", sp[name]
        if (name in hasov) printf ", \"single_overhead_pct\": %g", ov[name]
        printf "}"
    }
    printf "\n  ]"
}
BEGIN {
    goos = ""; goarch = ""; cpu = ""
    while ((getline line < enginefile) > 0) {
        if (line ~ /^goos: /)   { goos = substr(line, 7) }
        if (line ~ /^goarch: /) { goarch = substr(line, 9) }
        if (line ~ /^cpu: /)    { cpu = substr(line, 6) }
    }
    close(enginefile)
    printf "{\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    emit_bench(enginefile, "engine");     printf ",\n"
    emit_bench(tpchfile, "tpch");         printf ",\n"
    emit_bench(ckptfile, "checkpoint");   printf ",\n"
    emit_bench(blobfile, "blobstore");    printf ",\n"
    emit_bench(stratfile, "strategy");    printf ",\n"
    emit_cp(cpfile, "controlplane");      printf ",\n"
    emit_fold(foldfile, "fold");          printf "\n"
    printf "}\n"
}' > "$OUT"

echo "wrote $OUT"
