# Convenience targets; everything is plain `go` underneath.

.PHONY: build test race vet cover bench check

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...
	go vet -tags race ./...

# Line-coverage profile plus a browsable HTML report (coverage.html).
cover:
	go test -count=1 -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -1
	go tool cover -html=coverage.out -o coverage.html
	@echo "wrote coverage.html"

bench:
	go test -bench=. -benchtime=1x .

# The pre-merge gate: gofmt + vet + full suite under the race detector +
# the work ledger, allocation pins and a benchmark smoke run.
check:
	./scripts/check.sh
