#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs one workload.
#
#   bash e2ebench/run.sh --workload durable-fleet --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, else .bench_build): the Go
# build cache, the binary and the run's WAL data directory. The last line
# of standard output is the JSON result; the exit status is non-zero when
# the build, the run or a correctness check fails.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# The Go toolchain's config and telemetry live under the user config
# directory; keep them in the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" ./cmd/e2ebench)
# Write back what the build left dirty: on a journaling filesystem the
# durable workload's fsyncs would otherwise wait for it.
sync
exec "$out/e2ebench" --data-dir "$out/data" "$@"
