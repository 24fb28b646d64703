# Local developer workflow; `make check` runs exactly what CI runs
# (.github/workflows/ci.yml), so a green check here is a green CI.

GO ?= go

.PHONY: check lint vet-fixtures race repeat bench test build fmt smoke crash chaos attack cluster bench-json bench-compare fuzz-smoke

## check: everything CI runs — format, vet, lemonvet, build, tests, race, smoke
check: lint build test race repeat smoke crash chaos attack cluster

## lint: gofmt (fail on diff), go vet, and the lemonvet static-analysis
## suite (all nine passes; -strict-suppress also fails on stale allows)
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lemonvet -strict-suppress ./...

## vet-fixtures: the lemonvet fixture suites only — every pass against its
## testdata/src package, local and whole-program
vet-fixtures:
	$(GO) test ./internal/analysis/ -run 'TestAnalyzers$$|TestProgramAnalyzers$$' -v

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: race detector over the concurrency-sensitive packages, then the
## whole module in short mode (matches the CI race matrix entry)
race:
	$(GO) test -race ./internal/montecarlo/... ./internal/targeting/... ./internal/core/... ./internal/server/... ./internal/registry/... ./internal/cache/... ./internal/wal/... ./internal/fault/... ./internal/resilience/... ./internal/analysis/ ./internal/attack/... ./internal/nems/... ./internal/cluster/... ./api/...
	$(GO) test -race -short ./...

## repeat: the attack and cluster harness tests 50 times over, so an
## interleaving-dependent failure shows up here rather than in tier-1
repeat:
	$(GO) test -count=50 ./internal/attack/ ./internal/cluster/

## smoke: end-to-end daemon test (build, provision, lockout, metrics, drain)
smoke:
	./scripts/smoke.sh

## bench: the repo benchmarks, including the DeriveIndex hot path
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/rng/ ./internal/montecarlo/ .

## bench-json: lemonbench macro suite -> BENCH_<gitsha>.json at the repo root
bench-json:
	$(GO) run ./cmd/lemonaded bench -seed 42 \
		-out BENCH_$$(git rev-parse --short=12 HEAD).json

## bench-compare: gate NEW (default: this checkout's BENCH file) against OLD
## usage: make bench-compare OLD=BENCH_abc.json [NEW=BENCH_def.json]
bench-compare:
	@test -n "$(OLD)" || { echo "usage: make bench-compare OLD=<file> [NEW=<file>]"; exit 2; }
	$(GO) run ./cmd/lemonaded bench compare "$(OLD)" \
		"$${NEW:-BENCH_$$(git rev-parse --short=12 HEAD).json}"

## fuzz-smoke: short native-fuzz runs over the WAL frame and snapshot
## decoders and both Shamir codecs (the CI smoke; `go test -fuzz` for a
## long local run)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzWALFrameDecode' -fuzztime 30s ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime 15s ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzWearRecordDecode' -fuzztime 15s ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzShamirReconstruct' -fuzztime 15s ./internal/shamir/
	$(GO) test -run '^$$' -fuzz 'FuzzShamir16Reconstruct' -fuzztime 15s ./internal/shamir16/

## crash: crash-recovery test (SIGKILL mid-budget, restart, exact wear)
crash:
	./scripts/crash.sh

## chaos: live-daemon fault injection over 3 fixed seeds (fail closed,
## bit-identical recovery)
chaos:
	./scripts/chaos.sh

## attack: adversarial wearout attacker racing legitimate clients through
## chaos faults (no key leak, reveals within the leveled budget, wear
## metrics live)
attack:
	./scripts/chaos.sh attack

## cluster: 3-node consistent-hash cluster driven to the global lockout
## with a whole node killed mid-load (reveals within the cluster ceiling,
## lockout durable across the node's restart)
cluster:
	./scripts/chaos.sh cluster
