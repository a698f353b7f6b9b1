# See README "Install"; `make check` is the pre-commit gate.

.PHONY: check build test race bench bench-smoke bench-check

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

# Same race-checked packages as scripts/check.sh.
race:
	go test -race ./internal/stats/... ./internal/obs/... ./internal/runner/... ./internal/farm/...

# Hot-loop benchmark suite; writes BENCH_hotloop.json (baseline + current).
bench:
	./scripts/bench.sh

# One-iteration smoke run of the same suite (CI, non-gating).
bench-smoke:
	./scripts/bench.sh smoke

# Compare the current benchmark numbers in BENCH_hotloop.json against the
# frozen baseline and write a machine-readable delta report.
bench-check:
	go run ./cmd/benchcheck -bench-json BENCH_hotloop.json -report bench_delta.json
