# Verification entry points. `make check test race` is what CI runs.

.PHONY: all build check test race multicore lint bench bench-json fuzz manet-fuzz fuzz-hash

all: build check test

build:
	go build ./...

# Static gate: gofmt, go vet, and the determinism linter (manetlint).
check:
	sh scripts/check.sh

# manetlint alone (also part of `go test ./...` via lint_test.go).
lint:
	go run ./cmd/manetlint ./...

test:
	go test ./...

race:
	go test -race ./...

# Multi-core determinism gate: the serial-vs-parallel equivalence suite
# and a one-iteration smoke of the /par tick benchmarks, GOMAXPROCS
# pinned so the worker pool actually fans out.
multicore:
	GOMAXPROCS=4 go test -run TestParallelMatchesSerial -count=1 ./internal/simnet
	GOMAXPROCS=4 go test -run '^$$' -bench 'BenchmarkTick(GraphRebuild|LMUpdate)/par' -benchtime=1x -cpu=4 .

# Property-based scenario fuzzing: random configs run with every-tick
# invariant checks and a serial-vs-parallel differential; failures are
# shrunk to a minimal (config, seed, tick) repro. Override the budget
# with FUZZTIME=10m; set MANET_FUZZ_FAILURES=<dir> to persist shrunk
# repros as corpus files.
FUZZTIME ?= 30s
fuzz manet-fuzz:
	go test ./internal/invariant/prop -run FuzzScenario -fuzz FuzzScenario -fuzztime $(FUZZTIME)

# Rendezvous-hash kernel fuzzing: Rendezvous.Select against the
# byte-at-a-time FNV-1a reference on arbitrary (owner, level, salt,
# keys). Go fuzzes one target per invocation, hence its own target.
fuzz-hash:
	go test ./internal/lm -run '^$$' -fuzz FuzzRendezvousSelect -fuzztime $(FUZZTIME)

# Steady-state tick benchmarks, fresh vs reuse variants.
bench:
	go test -run '^$$' -bench 'BenchmarkTick' -benchmem -benchtime=20x .

# Same benchmarks recorded to BENCH_<date>.json for review in diffs.
bench-json:
	sh scripts/bench.sh
