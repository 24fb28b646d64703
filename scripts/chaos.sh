#!/usr/bin/env bash
# chaos.sh — live-daemon chaos test of the fail-closed wearout guarantee.
#
# For each fixed fault seed the script runs three phases against one data
# directory:
#
#   1. CHAOS  — lemonaded serves with -chaos injecting deterministic
#      storage faults (failed fsyncs, torn writes, ENOSPC, slow ops).
#      Clients hammer the access path and tolerate 500/503; the daemon is
#      then killed dead mid-flight.
#   2. RECOVER — a clean daemon (no chaos) restarts on the battered
#      directory, must log a successful recovery, and is driven to
#      lockout. The combined successful accesses across BOTH phases must
#      not exceed the architecture's max_allowed_accesses: faults and
#      crashes may waste budget, never mint it.
#   3. REPLAY — the daemon is killed and restarted once more; the
#      architecture's status must come back byte-identical and the
#      lockout must still hold (once dead, always dead).
#
# `chaos.sh attack` runs the ATTACK phase instead: a wear-leveled
# architecture serves legitimate clients while a concurrent stress
# attacker (hot/cold cycled bursts on targeted shares) races them, with
# chaos faults still injected. The invariants: no attacker-visible
# response ever carries key bytes, total reveals stay within the seeded
# hardware ceiling, the wear-leveling metrics are live in /metrics, and
# the scraped rotation count equals the device's own.
#
# `chaos.sh cluster` runs the CLUSTER phase: three durable nodes form a
# consistent-hash ring, a 2-of-3 share-split architecture is driven to
# the global lockout while one whole node is killed dead mid-load, and
# the reveals must stay within the cluster-wide ceiling ⌈n·M/k⌉ with no
# coordinator anywhere. The killed node then restarts on its battered
# directory and the cluster-level lockout must still hold.
#
# Run from the repo root; CI runs this exact script.
set -euo pipefail

mode="${1:-chaos}"

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pid=""
allpids=""
trap 'kill -9 $allpids $pid 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/lemonaded" ./cmd/lemonaded

# start_daemon [extra flags...] — boot on the seed's data dir.
start_daemon() {
    rm -f "$workdir/addr"
    # Tiny snapshot threshold: rotation and snapshot writes happen during
    # the run, so faults land on those paths too. Short breaker cooldown
    # keeps the daemon probing its way back out of degraded mode.
    "$workdir/lemonaded" serve -addr 127.0.0.1:0 -addr-file "$workdir/addr" \
        -data-dir "$workdir/data-$seed" -snapshot-records 8 \
        -breaker-threshold 3 -breaker-cooldown 200ms \
        "$@" >>"$workdir/log-$seed" 2>&1 &
    pid=$!
    for _ in $(seq 1 50); do
        [ -s "$workdir/addr" ] && break
        sleep 0.1
    done
    [ -s "$workdir/addr" ] || { echo "chaos: daemon never bound"; tail "$workdir/log-$seed"; exit 1; }
    base="http://$(cat "$workdir/addr")"
}

# access_n N — up to N accesses; echo "<successes> <locked>". Under
# chaos, 500 (store fault) and 503 (transient/degraded/shed) are the
# weather; 410 is lockout and stops early.
access_n() {
    local ok=0 locked=0 i code
    for i in $(seq 1 "$1"); do
        code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
            "$base/v1/architectures/$id/access")
        case "$code" in
            200) ok=$((ok + 1)) ;;
            500 | 503) ;;
            410) locked=1; break ;;
            *) echo "chaos: unexpected status $code" >&2; exit 1 ;;
        esac
    done
    echo "$ok $locked"
}

# provision_arch JSON_EXTRA — provision under chaos with retries; sets $id.
provision_arch() {
    id=""
    for _ in $(seq 1 20); do
        prov=$(curl -s -X POST "$base/v1/architectures" -d "{
            \"spec\": {\"alpha\": 6, \"beta\": 8, \"lab\": 30, \"kfrac\": 0.1, \"continuous_t\": true},
            \"secret_hex\": \"$secret\",
            \"seed\": 42$1
        }")
        id=$(echo "$prov" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
        [ -n "$id" ] && break
        sleep 0.2
    done
    [ -n "$id" ] || { echo "chaos: provision never succeeded under chaos"; exit 1; }
}

secret="00112233445566778899aabbccddeeff"

if [ "$mode" = attack ]; then
    # Seeds whose fault schedule lets the daemon boot (seed 4's first
    # injected fault lands on segment creation and kills startup).
    for seed in 5 6; do
        # ---- Attack phase: stress attacker races users through chaos. ----
        start_daemon -chaos "seed=$seed,density=0.02"
        echo "chaos: seed $seed attack phase on $base"
        spares=4
        provision_arch ", \"spares\": $spares, \"remap_epoch\": 8"
        # The budget is the seeded hardware ceiling of this exact provision
        # (seed 42, 4 spares, remap epoch 8): the most reveals its switches'
        # conducting cycles allow under any interleaving. internal/attack's
        # TestChaosAttackCeiling derives it and pins it in this file.
        budget=$(cat scripts/testdata/attack-ceiling)

        # The attacker: 120 deterministic hot/cold bursts concentrated on
        # shares 0–2. Any response carrying the secret is a leak; 500/503
        # are chaos weather; 410 means the attack killed the device.
        leakfile="$workdir/leak-$seed"
        (
            for i in $(seq 1 120); do
                t=400
                [ $(((i / 4) % 2)) = 1 ] && t=-40
                resp=$(curl -s -X POST "$base/v1/architectures/$id/stress" \
                    -d "{\"temp_celsius\": $t, \"indices\": [0, 1, 2], \"pulses\": 2}")
                case "$resp" in
                    *"$secret"*) echo "burst $i leaked key bytes: $resp" >"$leakfile"; exit 0 ;;
                    *'"error": "core: architecture exhausted'*) exit 0 ;;
                esac
            done
        ) &
        attacker=$!
        read -r s locked <<<"$(access_n 300)"
        wait "$attacker"
        [ ! -f "$leakfile" ] || { echo "chaos: FAIL — $(cat "$leakfile")"; exit 1; }
        [ "$locked" = 1 ] || { echo "chaos: attacked device never locked out"; exit 1; }
        if [ "$s" -gt "$budget" ]; then
            echo "chaos: FAIL — seed $seed attack minted budget: $s > hardware ceiling $budget"
            exit 1
        fi
        echo "chaos: seed $seed: reveals within budget under attack ($s <= $budget)"

        # The wear-observability contract: stress, remap, spare, and skew
        # metrics must be live on the scrape.
        metrics=$(curl -sf "$base/metrics")
        for metric in lemonaded_stress_pulses_total \
            lemonaded_wearout_remaps_total \
            "lemonaded_spares_remaining{arch=\"$id\"}" \
            "lemonaded_wear_skew_millis{arch=\"$id\"}"; do
            case "$metrics" in
                *"$metric"*) ;;
                *) echo "chaos: FAIL — /metrics missing $metric"; exit 1 ;;
            esac
        done
        echo "chaos: seed $seed: wear metrics present"
        # The rotation counter is the fleet's lifetime sum, computed at
        # scrape time, and the attacked device is the daemon's only
        # architecture: the two must agree.
        status=$(curl -sf "$base/v1/architectures/$id")
        want=$(echo "$status" | sed -n 's/.*"remaps": \([0-9]*\).*/\1/p')
        got=$(echo "$metrics" | sed -n 's/^lemonaded_wearout_remaps_total \([0-9]*\)$/\1/p')
        if [ -z "$want" ] || [ "$got" != "$want" ]; then
            echo "chaos: FAIL — lemonaded_wearout_remaps_total '$got' != device status remaps '$want'"
            exit 1
        fi
        echo "chaos: seed $seed: lemonaded_wearout_remaps_total $got matches the device status"

        kill -TERM "$pid"
        wait "$pid" || { echo "chaos: daemon exited nonzero"; exit 1; }
        echo "chaos: seed $seed attack PASS"
    done
    echo "chaos: attack PASS"
    exit 0
fi

if [ "$mode" = cluster ]; then
    ring="n0=ring,n1=ring,n2=ring" # nodes only need names+seed; they never dial peers
    # start_node NAME — boot one durable cluster member; appends to $allpids
    # and records its base URL in $workdir/url-NAME.
    start_node() {
        local name=$1
        rm -f "$workdir/addr-$name"
        "$workdir/lemonaded" serve -addr 127.0.0.1:0 -addr-file "$workdir/addr-$name" \
            -data-dir "$workdir/cluster-$name" -snapshot-records 8 \
            -node-name "$name" -ring-nodes "$ring" -ring-seed 42 \
            >>"$workdir/log-$name" 2>&1 &
        eval "pid_$name=$!"
        allpids="$allpids $!"
        for _ in $(seq 1 50); do
            [ -s "$workdir/addr-$name" ] && break
            sleep 0.1
        done
        [ -s "$workdir/addr-$name" ] || { echo "chaos: node $name never bound"; tail "$workdir/log-$name"; exit 1; }
        echo "http://$(cat "$workdir/addr-$name")" >"$workdir/url-$name"
    }

    for name in n0 n1 n2; do start_node "$name"; done
    members="n0=$(cat "$workdir/url-n0"),n1=$(cat "$workdir/url-n1"),n2=$(cat "$workdir/url-n2")"
    echo "chaos: cluster up: $members"

    # Every node must publish a consistent ring identity.
    for name in n0 n1 n2; do
        curl -sf "$(cat "$workdir/url-$name")/v1/cluster/ring" | grep -q "\"self\": \"$name\"" ||
            { echo "chaos: node $name ring endpoint broken"; exit 1; }
    done

    # Drive a 2-of-3 split to the global lockout; the loadgen itself
    # fails nonzero on a budget overrun or a wrong reconstructed secret.
    "$workdir/lemonaded" loadgen -cluster "$members" -ring-seed 42 \
        -share-k 2 -share-n 3 -workers 4 >"$workdir/loadgen-out" 2>&1 &
    lg=$!
    allpids="$allpids $lg"

    # The moment load starts flowing, kill a whole node dead. k=2 of 3
    # means the survivors keep serving; the dead node's share is wasted
    # budget, never minted budget.
    for _ in $(seq 1 100); do
        grep -q 'per-share budget' "$workdir/loadgen-out" && break
        sleep 0.1
    done
    kill -9 "$pid_n1" 2>/dev/null || true
    echo "chaos: killed n1 mid-load"

    wait "$lg" || { echo "chaos: FAIL — cluster loadgen:"; cat "$workdir/loadgen-out"; exit 1; }
    grep -q 'within global ceiling' "$workdir/loadgen-out" ||
        { echo "chaos: loadgen never verified the ceiling"; cat "$workdir/loadgen-out"; exit 1; }
    sed -n 's/^global lockout/chaos: global lockout/p' "$workdir/loadgen-out"

    # The killed node restarts on its battered directory; the cluster
    # lockout must survive: at least k of the shares must answer 410, so
    # no client can ever again assemble a quorum.
    start_node n1
    grep -q 'lemonaded: recovered' "$workdir/log-n1" ||
        { echo "chaos: n1 did not recover its WAL"; tail "$workdir/log-n1"; exit 1; }
    gone=0
    for name in n0 n1 n2; do
        base=$(cat "$workdir/url-$name")
        for idx in 0 1 2; do
            code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/architectures/arch-000001@s$idx/access")
            [ "$code" = 410 ] && gone=$((gone + 1))
        done
    done
    [ "$gone" -ge 2 ] || { echo "chaos: FAIL — only $gone shares report 410; quorum still assemblable"; exit 1; }
    echo "chaos: cluster lockout durable across node restart ($gone shares spent)"

    for name in n0 n1 n2; do
        eval "kill -TERM \$pid_$name 2>/dev/null || true"
    done
    echo "chaos: cluster PASS"
    exit 0
fi

for seed in 1 2 3; do
    # ---- Phase 1: serve through a faulty disk, then die mid-flight. ----
    start_daemon -chaos "seed=$seed,density=0.02"
    echo "chaos: seed $seed phase 1 (chaos) on $base"
    grep -q 'CHAOS MODE' "$workdir/log-$seed" || {
        echo "chaos: daemon did not announce chaos mode"; exit 1
    }
    # Provisioning itself may hit an injected fault (500/503); retry.
    provision_arch ''
    max=$(curl -sf "$base/v1/architectures/$id" |
        sed -n 's/.*"max_allowed_accesses": \([0-9]*\).*/\1/p')
    [ -n "$max" ] || { echo "chaos: no max_allowed_accesses in status"; exit 1; }
    read -r s1 _ <<<"$(access_n 20)"
    echo "chaos: seed $seed: $s1 successes through the faulty disk, killing daemon"
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true

    # ---- Phase 2: clean restart, recover, drive to lockout. ----
    start_daemon
    echo "chaos: seed $seed phase 2 (recovery) on $base"
    grep -q 'lemonaded: recovered' "$workdir/log-$seed" || {
        echo "chaos: no recovery log line"; tail "$workdir/log-$seed"; exit 1
    }
    read -r s2 locked <<<"$(access_n 200)"
    [ "$locked" = 1 ] || { echo "chaos: never reached lockout after recovery"; exit 1; }
    total=$((s1 + s2))
    if [ "$total" -gt "$max" ]; then
        echo "chaos: FAIL — seed $seed minted budget: $s1 + $s2 = $total > max_allowed $max"
        exit 1
    fi
    echo "chaos: seed $seed: budget held ($s1 + $s2 = $total <= $max), lockout reached"
    status1=$(curl -sf "$base/v1/architectures/$id")
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true

    # ---- Phase 3: recovery is bit-identical and lockout is durable. ----
    start_daemon
    echo "chaos: seed $seed phase 3 (replay) on $base"
    status2=$(curl -sf "$base/v1/architectures/$id")
    if [ "$status1" != "$status2" ]; then
        echo "chaos: FAIL — seed $seed status diverged across replay:"
        echo "  before: $status1"
        echo "  after:  $status2"
        exit 1
    fi
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "$base/v1/architectures/$id/access")
    [ "$code" = 410 ] || { echo "chaos: lockout not durable (got $code)"; exit 1; }
    kill -TERM "$pid"
    wait "$pid" || { echo "chaos: daemon exited nonzero"; exit 1; }
    echo "chaos: seed $seed PASS"
done
echo "chaos: PASS"
