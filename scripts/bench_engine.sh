#!/bin/sh
# Runs the engine wall-clock scaling benchmarks
# (BenchmarkEngineWallScaling{1,2,4,8}), the injection-path comparison
# (BenchmarkEngineInject{Scalar,Batch}), the multi-victim namespace
# scaling (BenchmarkEngineMultiVictim{1,4,16}) and the rule-reinstall
# latency sweep — full rebuild (BenchmarkReconfigure{1k,10k,25k}) against
# incremental delta reinstall (BenchmarkReconfigureDelta{1k,10k,25k}, a
# ≤1%-of-rules changeset through the classifier's incremental patch) —
# and writes the results as JSON so the performance trajectory
# accumulates across PRs.
# Usage:
#
#   scripts/bench_engine.sh [output.json]     # default BENCH_engine.json
#   BENCHTIME=500000x scripts/bench_engine.sh # longer runs
#   ONLY=multivictim scripts/bench_engine.sh  # just the namespace gate
#                                             # (make bench-multivictim)
#   ONLY=telemetry scripts/bench_engine.sh    # just the telemetry gate
#                                             # (make bench-telemetry)
#   ONLY=isolation scripts/bench_engine.sh    # just the overload-isolation
#                                             # gate (make bench-isolation)
#
# Two quantities are recorded per shard count and must not be confused:
#
#   wall_mpps               what this machine actually sustained end to end
#                           (multi-producer batched injection + real worker
#                           drain), the ROADMAP's "fast as the hardware
#                           allows" number;
#   aggregate_modeled_mpps  the paper's Figure 4 quantity: per-shard SGX
#                           cost-model virtual time converted to a
#                           line-rate-capped rate and summed — linear in
#                           shard count on any host, by construction.
#
# Gates (the script exits non-zero when one fails):
#
#   inject_batch_2x     InjectBatch wall Mpps must be >= 2x scalar Inject
#                       on the multi-producer train workload. Enforced
#                       always: the batched reservation is a serial-cost
#                       reduction, so it holds even on one core.
#   wall_4_gt_1         wall Mpps at 4 shards must exceed 1 shard. Enforced
#                       when the host reports >= 4 CPUs (hosted CI runners
#                       do); recorded as skipped on smaller hosts, where a
#                       win would be scheduling luck, not engineering.
#   multivictim_4_ge_07 wall Mpps serving 4 victim namespaces must stay
#                       >= 0.7x the single-namespace figure on an
#                       otherwise identical workload (2 shards, 2
#                       producers). Enforced always: namespace dispatch is
#                       a per-burst view load plus 2-byte compares, so if
#                       this gate trips, dispatch has leaked onto the
#                       per-packet path.
#   telemetry_overhead_ge_097
#                       wall Mpps with the observability plane attached at
#                       its production defaults (1-in-64 stage sampling,
#                       1-in-4096 packet traces, journal on) must stay
#                       >= 0.97x the telemetry-off figure on the same
#                       2-shard workload. Enforced always: per packet,
#                       telemetry costs a handful of nil checks, one local
#                       counter increment per burst, and one atomic load
#                       per burst — none of which depends on host
#                       parallelism. The 0.03 allowance is measurement
#                       noise, not a budget to spend. Each side runs
#                       TELEMETRY_COUNT times (default 3) and the gate
#                       compares best-of: on a timeslicing 1-CPU host a
#                       single wall sample swings +-15% on scheduling
#                       luck, which would drown a 3% gate; peak-vs-peak
#                       isolates the overhead from the noise.
#   quiet_victim_ge_09  with one flooded-but-admission-capped victim on
#                       the engine (BenchmarkEngineIsolationAttacked), the
#                       three quiet victims' wall pps must stay >= 0.9x
#                       their no-attacker figure (…Solo). Enforced always:
#                       both phases run one producer on the same quiet
#                       workload, so the ratio prices what the attacker's
#                       clipped flood costs the neighbors — marker writes
#                       — not host parallelism. If this gate trips, the
#                       admission gate is leaking flood work onto the
#                       shared rings or filters.
#   delta_10k_ge_15     a ≤1%-of-rules delta reinstall at 10k rules must
#   delta_25k_ge_15     be >= 1.5x faster than the full rebuild at the same
#                       size (ditto at 25k; measured ~2.2x). The full
#                       rebuild is one classifier compile — it no longer
#                       builds a trie, which is what the former 5x ratio
#                       mostly measured. Enforced always: the speedup
#                       is a serial work reduction (patching the touched
#                       interval tables instead of recompiling every
#                       rule), host-independent, gated so the delta path
#                       can never regress to a hidden full rebuild.
set -e

out="${1:-BENCH_engine.json}"
benchtime="${BENCHTIME:-100000x}"
only="${ONLY:-}"
host_cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
go_version="$(go env GOVERSION)"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

if [ "$only" = "multivictim" ]; then
    pattern='BenchmarkEngineMultiVictim'
elif [ "$only" = "isolation" ]; then
    pattern='BenchmarkEngineIsolation'
else
    pattern='BenchmarkEngine(WallScaling|Inject|MultiVictim|Isolation)'
fi

: > "$tmp"
if [ "$only" != "telemetry" ]; then
    go test -run '^$' -bench "$pattern" \
        -benchtime "$benchtime" -count 1 . | tee -a "$tmp"
fi

# The telemetry overhead pair runs with -count so the gate can compare
# best-of rather than one noisy wall sample per side (see the gate note
# in the header).
if [ -z "$only" ] || [ "$only" = "telemetry" ]; then
    go test -run '^$' -bench 'BenchmarkEngineTelemetry' \
        -benchtime "$benchtime" -count "${TELEMETRY_COUNT:-3}" . | tee -a "$tmp"
fi

# The Reconfigure sweeps get their own iteration budgets: a 25k-rule
# reinstall costs tens of milliseconds, so the packet-scale benchtime
# above would run it for an hour. A handful of iterations is plenty for a
# whole-table-rebuild measurement. The DELTA sweep needs more: the
# filter's priority-domain densify recompile fires after ~100 consecutive
# 1% deltas (churn totalling (densifyFactor-1)x the rule set), so the
# gated mean must span at least one full cycle of that amortized cost to
# price steady-state churn honestly rather than the best case — 120
# iterations covers it at every rule count.
if [ -z "$only" ]; then
    go test -run '^$' -bench 'BenchmarkReconfigure(1k|10k|25k)$' \
        -benchtime "${RECONF_BENCHTIME:-10x}" -count 1 . | tee -a "$tmp"
    go test -run '^$' -bench 'BenchmarkReconfigureDelta' \
        -benchtime "${DELTA_BENCHTIME:-120x}" -count 1 . | tee -a "$tmp"
fi

awk -v benchtime="$benchtime" -v only="$only" \
    -v shcpus="$host_cpus" -v gover="$go_version" '
/^BenchmarkEngineWallScaling/ {
    name = $1
    sub(/-[0-9]+$/, "", name)                 # strip the -GOMAXPROCS suffix
    shards = name
    sub(/^BenchmarkEngineWallScaling/, "", shards)
    ns = ""; agg = ""; wall = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "aggregate-modeled-Mpps") agg = $i
        if ($(i+1) == "wall-Mpps") wall = $i
        if ($(i+1) == "host-cpus") cpus = $i
    }
    n++
    line[n] = sprintf("    {\"shards\": %s, \"ns_per_op\": %s, \"wall_mpps\": %s, \"aggregate_modeled_mpps\": %s}", shards, ns, wall, agg)
    wallv[shards] = wall
    aggv[shards] = agg
}
/^BenchmarkEngineMultiVictim/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    vict = name
    sub(/^BenchmarkEngineMultiVictim/, "", vict)
    ns = ""; wall = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "wall-Mpps") wall = $i
    }
    mvn++
    mvline[mvn] = sprintf("    {\"victims\": %s, \"ns_per_op\": %s, \"wall_mpps\": %s}", vict, ns, wall)
    mv[vict] = wall
}
/^BenchmarkReconfigureDelta/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    rk = name
    sub(/^BenchmarkReconfigureDelta/, "", rk)
    ns = ""; rules = ""; drules = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "rules") rules = $i
        if ($(i+1) == "delta-rules") drules = $i
    }
    dn++
    dline[dn] = sprintf("    {\"rules\": %.0f, \"delta_rules\": %.0f, \"ns_per_reconfigure\": %s, \"ms_per_reconfigure\": %.3f}", rules, drules, ns, ns / 1e6)
    deltans[rk] = ns
    next
}
/^BenchmarkReconfigure/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    rk = name
    sub(/^BenchmarkReconfigure/, "", rk)
    ns = ""; rules = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "rules") rules = $i
    }
    rn++
    rline[rn] = sprintf("    {\"rules\": %.0f, \"ns_per_reconfigure\": %s, \"ms_per_reconfigure\": %.3f}", rules, ns, ns / 1e6)
    fullns[rk] = ns
}
/^BenchmarkEngineIsolationSolo/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "quiet-wall-Mpps") isosolo = $i + 0
    next
}
/^BenchmarkEngineIsolationAttacked/ {
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "quiet-wall-Mpps") isoatk = $i + 0
        if ($(i+1) == "attacker-throttled") isothr = $i + 0
    }
    next
}
/^BenchmarkEngineTelemetryOff/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "wall-Mpps" && $i + 0 > teloff) teloff = $i + 0
}
/^BenchmarkEngineTelemetryOn/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "wall-Mpps" && $i + 0 > telon) telon = $i + 0
}
/^BenchmarkEngineInjectScalar/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "wall-Mpps") scalar = $i
}
/^BenchmarkEngineInjectBatch/ {
    for (i = 2; i < NF; i++) if ($(i+1) == "wall-Mpps") batch = $i
}
END {
    mvratio = (mv[1] > 0 && mv[4] > 0) ? mv[4] / mv[1] : 0
    mvgate = (mvratio >= 0.7) ? "pass" : "FAIL"
    telratio = (teloff > 0 && telon > 0) ? telon / teloff : 0
    telgate = (telratio >= 0.97) ? "pass" : "FAIL"
    isoratio = (isosolo > 0 && isoatk > 0) ? isoatk / isosolo : 0
    isogate = (isoratio >= 0.9) ? "pass" : "FAIL"

    if (only == "isolation") {
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkEngineIsolation\",\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"host_cpus\": %d,\n", shcpus
        printf "  \"go_version\": \"%s\",\n", gover
        printf "  \"isolation\": {\"solo_quiet_mpps\": %.3f, \"attacked_quiet_mpps\": %.3f, \"attacked_over_solo\": %.3f, \"attacker_throttled\": %.0f},\n", isosolo, isoatk, isoratio, isothr
        printf "  \"gates\": {\"quiet_victim_ge_09\": \"%s\"}\n", isogate
        printf "}\n"
        exit
    }

    if (only == "telemetry") {
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkEngineTelemetry\",\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"host_cpus\": %d,\n", shcpus
        printf "  \"go_version\": \"%s\",\n", gover
        printf "  \"telemetry\": {\"off_mpps\": %s, \"on_mpps\": %s, \"on_over_off\": %.3f},\n", teloff, telon, telratio
        printf "  \"gates\": {\"telemetry_overhead_ge_097\": \"%s\"}\n", telgate
        printf "}\n"
        exit
    }

    if (only == "multivictim") {
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkEngineMultiVictim\",\n"
        printf "  \"benchtime\": \"%s\",\n", benchtime
        printf "  \"host_cpus\": %d,\n", shcpus
        printf "  \"go_version\": \"%s\",\n", gover
        printf "  \"multivictim\": [\n"
        for (i = 1; i <= mvn; i++) printf "%s%s\n", mvline[i], (i < mvn ? "," : "")
        printf "  ],\n"
        printf "  \"multivictim_4_over_1\": %.2f,\n", mvratio
        printf "  \"gates\": {\"multivictim_4_ge_07\": \"%s\"}\n", mvgate
        printf "}\n"
        exit
    }

    wallscale = (wallv[1] > 0 && wallv[4] > 0) ? wallv[4] / wallv[1] : 0
    aggscale = (aggv[1] > 0 && aggv[8] > 0) ? aggv[8] / aggv[1] : 0
    injratio = (scalar > 0 && batch > 0) ? batch / scalar : 0

    injgate = (injratio >= 2.0) ? "pass" : "FAIL"
    if (cpus + 0 >= 4)
        wallgate = (wallscale > 1.0) ? "pass" : "FAIL"
    else
        wallgate = sprintf("skipped (host_cpus=%d; enforced when >= 4)", cpus)

    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkEngineWallScaling\",\n"
    printf "  \"frame_bytes\": 64,\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"host_cpus\": %d,\n", cpus
    printf "  \"go_version\": \"%s\",\n", gover
    printf "  \"results\": [\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", line[i], (i < n ? "," : "")
    printf "  ],\n"
    printf "  \"multivictim\": [\n"
    for (i = 1; i <= mvn; i++) printf "%s%s\n", mvline[i], (i < mvn ? "," : "")
    printf "  ],\n"
    printf "  \"reconfigure\": [\n"
    for (i = 1; i <= rn; i++) printf "%s%s\n", rline[i], (i < rn ? "," : "")
    printf "  ],\n"
    printf "  \"reconfigure_delta\": [\n"
    for (i = 1; i <= dn; i++) printf "%s%s\n", dline[i], (i < dn ? "," : "")
    printf "  ],\n"
    d10 = (deltans["10k"] > 0) ? fullns["10k"] / deltans["10k"] : 0
    d25 = (deltans["25k"] > 0) ? fullns["25k"] / deltans["25k"] : 0
    d10gate = (d10 >= 1.5) ? "pass" : "FAIL"
    d25gate = (d25 >= 1.5) ? "pass" : "FAIL"
    printf "  \"delta_speedup\": {\"10k\": %.1f, \"25k\": %.1f},\n", d10, d25
    printf "  \"inject\": {\"scalar_mpps\": %s, \"batch_mpps\": %s, \"batch_over_scalar\": %.2f},\n", scalar, batch, injratio
    printf "  \"telemetry\": {\"off_mpps\": %s, \"on_mpps\": %s, \"on_over_off\": %.3f},\n", teloff, telon, telratio
    printf "  \"isolation\": {\"solo_quiet_mpps\": %.3f, \"attacked_quiet_mpps\": %.3f, \"attacked_over_solo\": %.3f, \"attacker_throttled\": %.0f},\n", isosolo, isoatk, isoratio, isothr
    printf "  \"wall_scaling_4_over_1\": %.2f,\n", wallscale
    printf "  \"multivictim_4_over_1\": %.2f,\n", mvratio
    printf "  \"aggregate_scaling_8_over_1\": %.2f,\n", aggscale
    printf "  \"gates\": {\"inject_batch_2x\": \"%s\", \"wall_4_gt_1\": \"%s\", \"multivictim_4_ge_07\": \"%s\", \"telemetry_overhead_ge_097\": \"%s\", \"quiet_victim_ge_09\": \"%s\", \"delta_10k_ge_15\": \"%s\", \"delta_25k_ge_15\": \"%s\"}\n", injgate, wallgate, mvgate, telgate, isogate, d10gate, d25gate
    printf "}\n"
}' "$tmp" > "$out"

echo "wrote $out"

if grep -q '"FAIL"' "$out"; then
    echo "bench_engine: gate FAILED:" >&2
    grep '"gates"' "$out" >&2
    exit 1
fi
