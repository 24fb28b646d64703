#!/usr/bin/env bash
# crash.sh — crash-recovery smoke test of the lemonaded daemon.
#
# The durability claim under test: a SIGKILL can never refresh a wearout
# budget. The script runs a durable daemon, burns part of the budget,
# kills the process dead (no drain, no final snapshot), restarts it on
# the same data directory, and drives the recovered architecture to
# lockout. Seed 42 is the golden seed, so the two phases together must
# observe EXACTLY 30 successful accesses — one fewer means recovery
# replayed too much wear, one more means it lost some.
#
# Run from the repo root; CI runs this exact script.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/lemonaded" ./cmd/lemonaded

start_daemon() {
    rm -f "$workdir/addr"
    # A tiny snapshot threshold forces snapshot + segment rotation to
    # happen during the run, so recovery exercises snapshot load AND
    # tail replay, not just one of them.
    "$workdir/lemonaded" serve -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
        -data-dir "$workdir/data" -snapshot-records 8 \
        >>"$workdir/log" 2>&1 &
    pid=$!
    for _ in $(seq 1 50); do
        [ -s "$workdir/addr" ] && break
        sleep 0.1
    done
    base="http://$(cat "$workdir/addr")"
}

# access_n N — perform up to N accesses; echo "<successes> <locked>".
# 503 (transient) keeps going; 410 (lockout) stops early.
access_n() {
    local ok=0 locked=0 i code
    for i in $(seq 1 "$1"); do
        code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
            "$base/v1/architectures/$id/access")
        case "$code" in
            200) ok=$((ok + 1)) ;;
            503) ;;
            410) locked=1; break ;;
            *) echo "crash: unexpected status $code" >&2; exit 1 ;;
        esac
    done
    echo "$ok $locked"
}

# ---- Phase 1: burn part of the budget, then die without warning. ----
start_daemon
echo "crash: phase 1 on $base"
prov=$(curl -sf -X POST "$base/v1/architectures" -d '{
    "spec": {"alpha": 6, "beta": 8, "lab": 30, "kfrac": 0.1, "continuous_t": true},
    "secret_hex": "00112233445566778899aabbccddeeff",
    "seed": 42
}')
id=$(echo "$prov" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "crash: provision failed: $prov"; exit 1; }
read -r s1 locked <<<"$(access_n 17)"
[ "$locked" = 0 ] || { echo "crash: locked out already in phase 1"; exit 1; }
echo "crash: $s1 successes in 17 attempts, killing daemon with SIGKILL"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true

# ---- Phase 2: restart on the same directory and finish the budget. ----
phase1_lines=$(wc -l <"$workdir/log")
start_daemon
echo "crash: phase 2 on $base"
recovered=$(tail -n +"$((phase1_lines + 1))" "$workdir/log" | grep 'lemonaded: recovered' || true)
[ -n "$recovered" ] || {
    echo "crash: no recovery log line"; tail "$workdir/log"; exit 1
}
# Phase 1 crossed the snapshot threshold, so the restart must restore a
# snapshot (epoch > 0) and not only replay segments.
epoch=$(echo "$recovered" | sed -n 's/.*snapshot epoch \([0-9]*\).*/\1/p')
[ "${epoch:-0}" -gt 0 ] || {
    echo "crash: restart restored no snapshot: $recovered"; exit 1
}
echo "crash: restart restored snapshot epoch $epoch"
status=$(curl -sf "$base/v1/architectures/$id")
echo "$status" | grep -q '"attempts": 17' || {
    echo "crash: recovered state lost attempts:"; echo "$status"; exit 1
}
read -r s2 locked <<<"$(access_n 200)"
[ "$locked" = 1 ] || { echo "crash: never reached lockout after restart"; exit 1; }
echo "crash: $s2 more successes until lockout"

total=$((s1 + s2))
if [ "$total" -ne 30 ]; then
    echo "crash: FAIL — $s1 + $s2 = $total successful accesses across the crash, want exactly 30"
    exit 1
fi
echo "crash: budget held exactly across SIGKILL: $s1 + $s2 = 30"

# The recovered lockout is also durable: once dead, always dead.
# (Capture before grepping: grep -q quitting early would SIGPIPE curl
# and fail the pipeline under pipefail even on a match.)
metrics=$(curl -sf "$base/metrics")
echo "$metrics" | grep -q '^lemonaded_lockouts_total 1$' || {
    echo "crash: lockout counter wrong after recovery:"
    echo "$metrics" | grep lockout
    exit 1
}
kill -TERM "$pid"
wait "$pid" || { echo "crash: daemon exited nonzero"; exit 1; }
echo "crash: PASS"
