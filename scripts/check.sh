#!/bin/sh
# check.sh — the full pre-merge gate: formatting, static analysis, the whole
# test suite under the race detector, and the benchmark regression gate.
# Run via `make check` or directly.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet tag matrix (race off / race on)"
# The engine carries //go:build race / !race files (raceEnabled const); vet
# both halves so neither bitrots.
go vet ./...
go vet -tags race ./...

echo "== bench module (a separate module: root go vet/test skip it)"
(cd bench && go vet ./... && go test ./...)

echo "== go test -race ./..."
go test -race ./...

echo "== coverage gate (floor: COVERAGE.txt)"
floor="$(cat COVERAGE.txt)"
go test -count=1 -coverprofile=coverage.out ./... > /dev/null
total="$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')"
echo "total coverage: ${total}% (floor ${floor}%)"
awk -v t="$total" -v f="$floor" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || {
    echo "coverage ${total}% fell below the ${floor}% floor in COVERAGE.txt" >&2
    exit 1
}

echo "== chaos soak (10s of seeded faults + a mid-soak worker kill, under -race)"
go test -race -run='^TestChaosSoak$' -count=1 -v ./internal/dispatch | grep -E '^(=== RUN|--- (PASS|FAIL)|    chaos_soak|PASS|FAIL|ok)'

echo "== allocation regression (hot path must stay zero-alloc, bare and instrumented; skipped under -race above)"
go test -run='^TestSteadyStateTickAllocs' -count=1 -v ./internal/simnet | grep -E 'PASS|FAIL|allocates'

echo "== fuzz smoke (5s per target, seeded from checked-in corpora)"
# The target list comes from the test binaries themselves, so a new Fuzz*
# function is smoke-fuzzed without editing this script. `go test -list`
# prints a package's matching names before its "ok <package>" line.
targets="$(go test -list '^Fuzz' ./... | awk '
    /^Fuzz/ { names = names " " $1; next }
    /^ok/   { n = split(names, a, " "); for (i = 1; i <= n; i++) print $2, a[i]; names = "" }')"
if [ -z "$targets" ]; then
    echo "go test -list found no fuzz targets" >&2
    exit 1
fi
echo "$targets" | while read -r pkg target; do
    go test -run='^$' -fuzz="^${target}\$" -fuzztime=5s "$pkg"
done

echo "== loadgen fairness smoke (2 tenants at 4:1 weights, embedded service)"
go run ./cmd/loadgen -tenants heavy:4,light:1 -clients 4 -warmup 500ms \
    -duration 3s -job-ms 10 -tolerance 0.25

echo "== benchmark smoke + regression gate"
./scripts/bench.sh check

echo "ok"
