# Local developer workflow; `make check` runs what CI runs
# (.github/workflows/ci.yml), so a green check here is a green CI. The one
# exception is CI's lemonbench job: its merge-base gate needs a checkout of
# the base commit, so it runs only in CI (locally: `make bench-json` on each
# commit, then `make bench-compare`).

GO ?= go

.PHONY: check lint vet-fixtures race repeat test build fmt smoke crash chaos attack cluster bench-json bench-compare fuzz-smoke

## check: everything CI runs — format, vet, lemonvet, build, tests, fuzz
## smokes, race, smoke
check: lint build test fuzz-smoke race repeat smoke crash chaos attack cluster

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

## test: the module's tests, then the e2ebench module's vet and tests —
## it is a separate module, so `go build ./...` never compiles it — then
## every example, each of which exits non-zero on error
test:
	$(GO) test ./...
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...
	for d in examples/*/; do $(GO) run "./$$d" >/dev/null || exit 1; done

## race: race detector over the concurrency-sensitive packages, then the
## whole module in short mode (CI's race job runs this target)
race:
	$(GO) test -race ./internal/montecarlo/... ./internal/targeting/... ./internal/core/... ./internal/server/... ./internal/registry/... ./internal/cache/... ./internal/wal/... ./internal/fault/... ./internal/resilience/... ./internal/analysis/ ./internal/attack/... ./internal/nems/... ./internal/cluster/... ./internal/shamir/... ./internal/gf16/... ./api/...
	$(GO) test -race -short ./...

## repeat: the attack, cluster and registry tests 50 times over, so an
## interleaving-dependent failure shows up here rather than in tier-1
## (CI's attack job runs this target)
repeat:
	$(GO) test -count=50 ./internal/attack/ ./internal/cluster/ ./internal/registry/

## smoke: end-to-end daemon test (build, provision, lockout, metrics, drain)
smoke:
	./scripts/smoke.sh

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

## fuzz-smoke: short native-fuzz runs of every fuzz target: the WAL frame,
## snapshot and wear-record decoders, both Shamir fields, Shamir split and
## combine, the wide split's additive FFT against Horner's rule, and the
## survival-table lifetime draw (the CI check job runs this
## target; `go test -fuzz` for a long local run). The decoder targets run a
## fixed number of inputs: each input is a full recovery, and with a time
## budget the workers spend it minimizing the first new-coverage inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzWALFrameDecode' -fuzztime 10000x ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime 10000x ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzWearRecordDecode' -fuzztime 5000x ./internal/wal/
	$(GO) test -run '^$$' -fuzz 'FuzzShamirReconstruct' -fuzztime 15s ./internal/shamir/
	$(GO) test -run '^$$' -fuzz 'FuzzShamir16Reconstruct' -fuzztime 15s ./internal/shamir/
	$(GO) test -run '^$$' -fuzz '^FuzzSplitCombine$$' -fuzztime 20000x ./internal/shamir/
	$(GO) test -run '^$$' -fuzz '^FuzzSplitCombineInto$$' -fuzztime 20000x ./internal/shamir/
	$(GO) test -run '^$$' -fuzz '^FuzzFFTEval$$' -fuzztime 20000x ./internal/gf16/
	$(GO) test -run '^$$' -fuzz 'FuzzCycleTable' -fuzztime 15s ./internal/weibull/

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
