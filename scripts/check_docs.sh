#!/bin/sh
# Documentation presence gate (make docs-check; enforced in CI).
#
# Fails when:
#   - any internal package is missing a "// Package <name>" comment;
#   - any of the load-bearing packages (trie, classify, engine,
#     engine/module, filter, pipeline, enclave, lb, telemetry, faults) is
#     missing its dedicated doc.go — the file that states
#     the package's role, concurrency contract, and invariants;
#   - a required docs/ file is gone, or README stopped linking it;
#   - README or docs/ name a `make <target>` the Makefile does not define.
#
# This keeps the documentation layer from silently rotting: a PR that adds
# an internal package without saying what it is, or deletes a contract
# doc, fails the build.
set -e

fail=0

for dir in internal/*/; do
    p="$(basename "$dir")"
    if ! grep -qr "^// Package $p " "$dir" --include='*.go' 2>/dev/null &&
       ! grep -qr "^// Package $p$" "$dir" --include='*.go' 2>/dev/null; then
        echo "docs-check: internal/$p has no package comment (\"// Package $p ...\")" >&2
        fail=1
    fi
done

for p in trie classify engine engine/module filter pipeline enclave lb telemetry faults; do
    if [ ! -f "internal/$p/doc.go" ]; then
        echo "docs-check: internal/$p/doc.go missing (role + concurrency contract + invariants)" >&2
        fail=1
    elif ! grep -q "Concurrency contract" "internal/$p/doc.go" ||
         ! grep -q "Invariants" "internal/$p/doc.go"; then
        echo "docs-check: internal/$p/doc.go must document the concurrency contract and invariants" >&2
        fail=1
    fi
done

for f in docs/ARCHITECTURE.md docs/BENCHMARKS.md docs/OBSERVABILITY.md; do
    if [ ! -f "$f" ]; then
        echo "docs-check: $f missing" >&2
        fail=1
    elif ! grep -q "$f" README.md; then
        echo "docs-check: README.md does not link $f" >&2
        fail=1
    fi
done

for t in $(grep -ohE 'make [a-z][a-z0-9-]*' README.md docs/*.md | awk '{print $2}' | sort -u); do
    if ! grep -q "^$t:" Makefile; then
        echo "docs-check: README/docs name \`make $t\`, which the Makefile does not define" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs-check: FAILED" >&2
    exit 1
fi
echo "docs-check: ok"
