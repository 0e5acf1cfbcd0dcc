#!/bin/sh
# Runs the filter hot-path benchmarks and writes the results as JSON so
# the data path's advantages are recorded per PR and cannot silently
# regress. Two benchmark families:
#
#   - scalar BenchmarkFilterProcess vs batched BenchmarkFilterBatch on the
#     allow-heavy packet-train workload (gate: batch >= 2x scalar pps);
#   - the compiled-classifier flatness sweep, BenchmarkClassifyBatch{1k,
#     10k,100k} against the retained trie's candidate-scan path
#     BenchmarkTrieScanPath{1k,10k,100k} on the reflection-defense rule
#     shape (unique dst /28 per rule, 256-entry src /16 vocabulary). The
#     classifier resolves one interval per attribute and intersects <= 5
#     rule bitsets, so its ns/pkt must be rule-count-invariant (gate:
#     100k <= 2x its own 1k figure) while the trie's per-node linear scan
#     degrades superlinearly — recorded side by side, not just asserted.
#
# Usage:
#
#   scripts/bench_filter.sh [output.json]       # default BENCH_filter.json
#   BENCHTIME=1000000x scripts/bench_filter.sh  # longer batch/scalar runs
#   CLASSIFY_BENCHTIME=100000x ...              # longer flatness runs
#   ONLY=classify scripts/bench_filter.sh       # just the flatness gate
#                                               # (make bench-classify)
#
# The JSON records, per path, the wall-clock ns per packet, the derived
# packets/sec, and the SGX cost model's virtual ns per packet; per rule
# count, the classify and trie ns/pkt; plus host_cpus and go_version so
# wall-clock numbers can be compared across recorded runs honestly.
set -e

out="${1:-BENCH_filter.json}"
benchtime="${BENCHTIME:-300000x}"
classify_benchtime="${CLASSIFY_BENCHTIME:-50000x}"
only="${ONLY:-}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

host_cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
go_version="$(go env GOVERSION)"

: > "$tmp"
if [ -z "$only" ]; then
    go test -run '^$' -bench 'BenchmarkFilter(Process|Batch)$' \
        -benchtime "$benchtime" -count 1 . | tee -a "$tmp"
fi
if [ -z "$only" ] || [ "$only" = "classify" ]; then
    go test -run '^$' -bench 'Benchmark(ClassifyBatch|TrieScanPath)(1k|10k|100k)$' \
        -benchtime "$classify_benchtime" -count 1 . | tee -a "$tmp"
fi

awk -v benchtime="$benchtime" -v cbenchtime="$classify_benchtime" \
    -v cpus="$host_cpus" -v gover="$go_version" -v only="$only" '
/^BenchmarkFilter(Process|Batch)/ {
    name = $1
    sub(/-[0-9]+$/, "", name)                 # strip the -GOMAXPROCS suffix
    path = (name ~ /Batch/) ? "batch" : "scalar"
    ns = ""; modeled = ""; wall = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "modeled-ns/pkt") modeled = $i
        if ($(i+1) == "wall-Mpps") wall = $i
    }
    pps[path] = (ns > 0) ? 1e9 / ns : 0
    n++
    line[n] = sprintf("    {\"path\": \"%s\", \"ns_per_pkt\": %s, \"pps\": %.0f, \"modeled_ns_per_pkt\": %s, \"wall_mpps\": %s}", path, ns, pps[path], modeled, wall)
}
/^BenchmarkClassifyBatch/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    k = name
    sub(/^BenchmarkClassifyBatch/, "", k)
    for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") cns[k] = $i
}
/^BenchmarkTrieScanPath/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    k = name
    sub(/^BenchmarkTrieScanPath/, "", k)
    for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") tns[k] = $i
}
END {
    split("1k 10k 100k", ks, " ")
    rules["1k"] = 1000; rules["10k"] = 10000; rules["100k"] = 100000
    cm = 0
    for (j = 1; j <= 3; j++) {
        k = ks[j]
        if (cns[k] == "" && tns[k] == "") continue
        cm++
        cline[cm] = sprintf("    {\"rules\": %d, \"classify_batch_ns_per_pkt\": %s, \"trie_ns_per_lookup\": %s}", rules[k], cns[k] == "" ? "null" : cns[k], tns[k] == "" ? "null" : tns[k])
    }
    flat = (cns["1k"] > 0 && cns["100k"] > 0) ? cns["100k"] / cns["1k"] : 0
    flatgate = (flat > 0 && flat <= 2.0) ? "pass" : "FAIL"

    if (only == "classify") {
        printf "{\n"
        printf "  \"benchmark\": \"BenchmarkClassifyBatch vs BenchmarkTrieScanPath\",\n"
        printf "  \"workload\": \"reflection shape: unique dst /28 per rule, 256 src /16 vocab, sport in reflection set, dport any, UDP\",\n"
        printf "  \"benchtime\": \"%s\",\n", cbenchtime
        printf "  \"host_cpus\": %d,\n", cpus
        printf "  \"go_version\": \"%s\",\n", gover
        printf "  \"classify\": [\n"
        for (i = 1; i <= cm; i++) printf "%s%s\n", cline[i], (i < cm ? "," : "")
        printf "  ],\n"
        printf "  \"classify_100k_over_1k\": %.2f,\n", flat
        printf "  \"gates\": {\"classify_flat_100k_le_2x_1k\": \"%s\"}\n", flatgate
        printf "}\n"
        exit
    }

    speedup = (pps["scalar"] > 0) ? pps["batch"] / pps["scalar"] : 0
    batchgate = (speedup >= 2.0) ? "pass" : "FAIL"
    printf "{\n"
    printf "  \"benchmark\": \"BenchmarkFilterProcess vs BenchmarkFilterBatch\",\n"
    printf "  \"workload\": \"allow-heavy, 3000 rules, 64B frames, 4-packet trains, 64-packet bursts\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"host_cpus\": %d,\n", cpus
    printf "  \"go_version\": \"%s\",\n", gover
    printf "  \"results\": [\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", line[i], (i < n ? "," : "")
    printf "  ],\n"
    printf "  \"classify\": [\n"
    for (i = 1; i <= cm; i++) printf "%s%s\n", cline[i], (i < cm ? "," : "")
    printf "  ],\n"
    printf "  \"classify_100k_over_1k\": %.2f,\n", flat
    printf "  \"batch_over_scalar_pps\": %.2f,\n", speedup
    printf "  \"gates\": {\"batch_over_scalar_2x\": \"%s\", \"classify_flat_100k_le_2x_1k\": \"%s\"}\n", batchgate, flatgate
    printf "}\n"
}' "$tmp" > "$out"

echo "wrote $out"

if grep -q '"FAIL"' "$out"; then
    echo "bench_filter: gate FAILED:" >&2
    grep '"gates"' "$out" >&2
    exit 1
fi
grep '"gates"' "$out"
