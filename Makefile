# VIF build/test/bench entry points. `make bench` refreshes
# BENCH_engine.json — wall-clock multi-producer shard scaling, the
# injection-path comparison, multi-victim namespace scaling, and the
# Reconfigure latency sweep — and enforces the perf gates (InjectBatch ≥2x
# scalar Inject always; 4-shard wall Mpps > 1-shard on hosts with ≥4 CPUs;
# 4-namespace wall Mpps ≥ 0.7x single-namespace always).
# `make bench-multivictim` runs just the namespace-scaling slice of the
# same script; `make bench-telemetry` runs just the observability
# overhead slice (telemetry-on wall Mpps ≥ 0.97x telemetry-off);
# `make bench-isolation` runs just the overload-isolation slice (quiet
# victims' wall Mpps with an admission-capped attacked neighbor ≥ 0.9x
# their solo figure).
# `make bench-filter` refreshes BENCH_filter.json — the scalar-vs-batch
# hot-path comparison (guarded at ≥2x batch speedup) plus the compiled
# classifier's rule-count-invariance sweep (100k-rule ns/pkt guarded at
# ≤2x its own 1k figure, with the paper's trie scan recorded alongside).
# `make bench-classify` runs just that flatness slice.

GO ?= go

.PHONY: all build vet test race bench bench-filter bench-classify bench-multivictim bench-telemetry bench-isolation docs-check

all: build vet test docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

bench:
	./scripts/bench_engine.sh BENCH_engine.json

bench-filter:
	./scripts/bench_filter.sh BENCH_filter.json

bench-classify:
	ONLY=classify ./scripts/bench_filter.sh BENCH_classify.json

bench-multivictim:
	ONLY=multivictim ./scripts/bench_engine.sh BENCH_multivictim.json

bench-telemetry:
	ONLY=telemetry ./scripts/bench_engine.sh BENCH_telemetry.json

bench-isolation:
	ONLY=isolation ./scripts/bench_engine.sh BENCH_isolation.json

# Fails when an internal package lacks a package comment, a load-bearing
# package lacks its doc.go contract, or docs/ files go missing/unlinked.
docs-check:
	./scripts/check_docs.sh
