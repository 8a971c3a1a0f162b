#!/bin/sh
# bench_compare.sh — diff two BENCH_engine.json files (see bench_json.sh)
# and gate performance regressions. For every benchmark in a gated section
# (default: engine, tpch and blobstore) a ns/op or allocs/op regression
# above FAIL_PCT (default 25%) fails the run; regressions between WARN_PCT (default 10%)
# and FAIL_PCT only warn, as do regressions in the non-gated sections.
# Allocation counts are gated with the same thresholds as wall time because
# they are deterministic for a given benchtime and CPU count (bench_json.sh
# samples at the baseline's benchtime, the engine and TPC-H sections on one
# CPU) — there an allocs/op jump is always a real code change, never machine
# noise, and the fused kernel layer exists precisely to keep the hot paths
# allocation-free. Benchmarks present
# in one file but not the other are reported, and a duplicate benchmark name
# within a section is an error — two benchmarks whose names collapse to the
# same JSON key would silently gate each other's numbers.
#
# The script also enforces the lineage acceptance ratio: LineageSuspend
# (strategy section) must cost at most LINEAGE_RATIO_PCT (default 10%) of
# ProcessSuspendResume (engine section) — the write-ahead log makes the
# suspension itself a tail flush, not a state dump.
#
# And the proxy resilience budget: the controlplane ProxyOverhead
# benchmark's paired overhead_pct (p.do with breaker/retry accounting vs
# a bare client, alternating per iteration against the same loopback
# instance) must stay under PROXY_OVERHEAD_PCT (default 5%) — the
# resilience layer must be free on the happy path.
#
# And the shared-execution budget (fold section): FoldBurst32's paired
# fold_speedup (the same 32-session mixed TPC-H burst served with folding
# off and on) must reach FOLD_SPEEDUP_MIN (default 1.5), and
# FoldSingleOverhead's paired single_overhead_pct (a lone session on a
# fold-enabled database vs a plain one) must stay under FOLD_OVERHEAD_PCT
# (default 10%) — sharing must pay off under concurrency without taxing
# the session that has nobody to share with.
#
# Messages use GitHub workflow annotations (::error::/::warning::), which
# degrade to plain text locally.
#
# Usage: sh scripts/bench_compare.sh baseline.json fresh.json
set -eu

BASE=${1:?usage: bench_compare.sh baseline.json fresh.json}
FRESH=${2:?usage: bench_compare.sh baseline.json fresh.json}
FAIL_PCT=${FAIL_PCT:-25}
WARN_PCT=${WARN_PCT:-10}
GATED_SECTIONS=${GATED_SECTIONS:-engine tpch blobstore}
LINEAGE_RATIO_PCT=${LINEAGE_RATIO_PCT:-10}
PROXY_OVERHEAD_PCT=${PROXY_OVERHEAD_PCT:-5}
FOLD_SPEEDUP_MIN=${FOLD_SPEEDUP_MIN:-1.5}
FOLD_OVERHEAD_PCT=${FOLD_OVERHEAD_PCT:-10}

awk -v basefile="$BASE" -v freshfile="$FRESH" \
    -v failpct="$FAIL_PCT" -v warnpct="$WARN_PCT" \
    -v gated="$GATED_SECTIONS" -v ratiopct="$LINEAGE_RATIO_PCT" \
    -v proxypct="$PROXY_OVERHEAD_PCT" \
    -v foldmin="$FOLD_SPEEDUP_MIN" -v foldovpct="$FOLD_OVERHEAD_PCT" '
# load parses one bench_json.sh document into ns[<section>/<name>] and
# al[<section>/<name>] (allocs/op, when present), recording the key order
# in keys[] and flagging duplicates.
function load(file, ns, al, keys, nkeys,    line, sec, name, key, q, n) {
    sec = ""
    while ((getline line < file) > 0) {
        if (match(line, /^  "[a-z_]+": \[/)) {
            n = split(line, q, "\"")
            sec = q[2]
            continue
        }
        if (line !~ /"name": /) continue
        n = split(line, q, "\"")
        name = q[4]
        if (sec == "" || name == "") continue
        key = sec "/" name
        if (!match(line, /"ns_per_op": [0-9.eE+-]+/)) continue
        if (key in ns) {
            printf "::error::duplicate benchmark name %s in %s — rename one (names must stay distinct after suffix stripping)\n", name, file
            errs++
            continue
        }
        ns[key] = substr(line, RSTART + 13, RLENGTH - 13) + 0
        if (match(line, /"allocs_per_op": [0-9.eE+-]+/))
            al[key] = substr(line, RSTART + 17, RLENGTH - 17) + 0
        keys[++nkeys[0]] = key
    }
    close(file)
    return
}

BEGIN {
    errs = 0; warns = 0
    nb[0] = 0; nf[0] = 0
    load(basefile, bns, bal, bkeys, nb)
    load(freshfile, fns, fal, fkeys, nf)
    if (nb[0] == 0) { printf "::error::no benchmarks parsed from baseline %s\n", basefile; errs++ }
    if (nf[0] == 0) { printf "::error::no benchmarks parsed from fresh run %s\n", freshfile; errs++ }

    ngate = split(gated, gs, /[ \t]+/)
    for (i = 1; i <= ngate; i++) gate[gs[i]] = 1

    for (i = 1; i <= nf[0]; i++) {
        key = fkeys[i]
        split(key, parts, "/")
        sec = parts[1]
        if (!(key in bns)) {
            printf "::notice::new benchmark %s (no baseline to compare)\n", key
            continue
        }
        old = bns[key]; new = fns[key]
        if (old <= 0) continue
        pct = (new - old) / old * 100
        if (pct > failpct && (sec in gate)) {
            printf "::error::%s regressed %.1f%%: %.0f -> %.0f ns/op (limit %s%%)\n", key, pct, old, new, failpct
            errs++
        } else if (pct > warnpct) {
            printf "::warning::%s slower by %.1f%%: %.0f -> %.0f ns/op\n", key, pct, old, new
            warns++
        } else if (pct < -warnpct) {
            printf "%s improved %.1f%%: %.0f -> %.0f ns/op\n", key, -pct, old, new
        }
        # Allocation gate: same thresholds, same sections.
        if (!((key in bal) && (key in fal)) || bal[key] <= 0) continue
        apct = (fal[key] - bal[key]) / bal[key] * 100
        if (apct > failpct && (sec in gate)) {
            printf "::error::%s allocates %.1f%% more: %.0f -> %.0f allocs/op (limit %s%%)\n", key, apct, bal[key], fal[key], failpct
            errs++
        } else if (apct > warnpct) {
            printf "::warning::%s allocates %.1f%% more: %.0f -> %.0f allocs/op\n", key, apct, bal[key], fal[key]
            warns++
        } else if (apct < -warnpct) {
            printf "%s allocates %.1f%% less: %.0f -> %.0f allocs/op\n", key, -apct, bal[key], fal[key]
        }
    }
    for (i = 1; i <= nb[0]; i++) {
        key = bkeys[i]
        if (!(key in fns)) {
            printf "::warning::benchmark %s present in baseline but missing from the fresh run\n", key
            warns++
        }
    }

    # The lineage acceptance ratio: suspension-by-seal must stay a small
    # fraction of the process-checkpoint round trip.
    lin = fns["strategy/LineageSuspend"]
    proc = fns["engine/ProcessSuspendResume"]
    if (lin > 0 && proc > 0) {
        ratio = lin / proc * 100
        if (ratio > ratiopct) {
            printf "::error::LineageSuspend is %.1f%% of ProcessSuspendResume (%.0f / %.0f ns/op), above the %s%% ceiling\n", ratio, lin, proc, ratiopct
            errs++
        } else {
            printf "lineage suspend is %.1f%% of a process suspend+resume (%.0f / %.0f ns/op, ceiling %s%%)\n", ratio, lin, proc, ratiopct
        }
    } else if (proc > 0) {
        printf "::warning::strategy/LineageSuspend missing from the fresh run; ratio check skipped\n"
        warns++
    }

    # The proxy resilience budget: the paired overhead metric from the
    # fresh run (baseline-independent — pairing already cancels machine
    # drift) must stay under the ceiling.
    overhead = ""
    sec = ""
    while ((getline line < freshfile) > 0) {
        if (match(line, /^  "[a-z_]+": \[/)) {
            split(line, q, "\"")
            sec = q[2]
            continue
        }
        if (sec != "controlplane" || line !~ /"name": "ProxyOverhead"/) continue
        if (match(line, /"overhead_pct": -?[0-9.eE+-]+/))
            overhead = substr(line, RSTART + 16, RLENGTH - 16) + 0
    }
    close(freshfile)
    if (overhead == "") {
        printf "::warning::controlplane/ProxyOverhead missing from the fresh run; proxy overhead gate skipped\n"
        warns++
    } else if (overhead > proxypct) {
        printf "::error::proxy resilience layer costs %.1f%% over a bare client (ceiling %s%%)\n", overhead, proxypct
        errs++
    } else {
        printf "proxy resilience overhead is %.1f%% of a bare client request (ceiling %s%%)\n", overhead, proxypct
    }

    # The shared-execution budget: both metrics come paired from the
    # fresh run (folding off vs on, interleaved), so the gate is
    # baseline-independent like the proxy one.
    speedup = ""; foldov = ""
    sec = ""
    while ((getline line < freshfile) > 0) {
        if (match(line, /^  "[a-z_]+": \[/)) {
            split(line, q, "\"")
            sec = q[2]
            continue
        }
        if (sec != "fold") continue
        if (line ~ /"name": "FoldBurst32"/ && match(line, /"fold_speedup": [0-9.eE+-]+/))
            speedup = substr(line, RSTART + 16, RLENGTH - 16) + 0
        if (line ~ /"name": "FoldSingleOverhead"/ && match(line, /"single_overhead_pct": -?[0-9.eE+-]+/))
            foldov = substr(line, RSTART + 22, RLENGTH - 22) + 0
    }
    close(freshfile)
    if (speedup == "") {
        printf "::warning::fold/FoldBurst32 missing from the fresh run; fold speedup gate skipped\n"
        warns++
    } else if (speedup + 0 < foldmin + 0) {
        printf "::error::folded 32-session burst is only %.2fx an isolated one (floor %sx)\n", speedup, foldmin
        errs++
    } else {
        printf "folded 32-session burst runs %.2fx the isolated aggregate throughput (floor %sx)\n", speedup, foldmin
    }
    if (foldov == "") {
        printf "::warning::fold/FoldSingleOverhead missing from the fresh run; fold single-session gate skipped\n"
        warns++
    } else if (foldov > foldovpct) {
        printf "::error::fold-enabled database costs a lone session %.1f%% (ceiling %s%%)\n", foldov, foldovpct
        errs++
    } else {
        printf "fold machinery costs a lone session %.1f%% (ceiling %s%%)\n", foldov, foldovpct
    }

    printf "bench gate: %d benchmark(s) compared, %d warning(s), %d error(s)\n", nf[0], warns, errs
    exit errs > 0 ? 1 : 0
}'
