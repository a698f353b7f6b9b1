#!/bin/sh
# End-to-end smoke test of the sweep farm, run as the CI farm-smoke job:
# boots a real simfarmd coordinator and one simfarm-worker, drives the
# examples/farm/specs.json sweep through them, then proves the corpus
# short-circuit by resubmitting against a *fresh* coordinator process on
# the same corpus with no worker running — every job must come back
# cached with byte-identical summaries. A third run restarts the
# coordinator mid-sweep on a fresh corpus: the waiting client must
# re-submit to the new coordinator and finish with the same summaries.
#
# Runs the cold+warm+restart cycle in one or both transport modes:
#
#   plain  coordinator and clients over plaintext HTTP
#   tls    coordinator under mutual TLS + bearer-token auth, certificates
#          minted on the fly with cmd/gencert; also asserts that a client
#          with a bad token is rejected and that the worker exits with the
#          distinct auth code (4)
#
# Usage: scripts/farmsmoke.sh [plain|tls|both] [addr]
#        (default: both, 127.0.0.1:18344)
set -eu

cd "$(dirname "$0")/.."

MODE=${1:-both}
ADDR=${2:-127.0.0.1:18344}
case "$MODE" in
plain | tls | both) ;;
*)
    echo "farmsmoke: unknown mode '$MODE' (want plain, tls, or both)" >&2
    exit 2
    ;;
esac

WORK=$(mktemp -d "${TMPDIR:-/tmp}/farmsmoke.XXXXXX")

DPID=""
WPID=""
CPID=""
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    [ -n "$WPID" ] && kill "$WPID" 2>/dev/null || true
    [ -n "$CPID" ] && kill "$CPID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "farmsmoke: building binaries into $WORK"
go build -o "$WORK/simfarmd" ./cmd/simfarmd
go build -o "$WORK/simfarm-worker" ./cmd/simfarm-worker
go build -o "$WORK/simfarm" ./cmd/simfarm
if [ "$MODE" != "plain" ]; then
    go build -o "$WORK/gencert" ./cmd/gencert
    "$WORK/gencert" -dir "$WORK/certs"
    TOKEN=smoke-$$
fi

# run_cycle <tag> <daemon args...> — one cold+warm+restart cycle against
# fresh corpora. CLIENT_ARGS / WORKER_ARGS carry the matching client credentials.
run_cycle() {
    tag=$1
    shift
    corpus="$WORK/corpus-$tag"

    echo "farmsmoke[$tag]: cold run (coordinator + 1 worker) on $ADDR"
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$corpus" "$@" 2>"$WORK/simfarmd-$tag.log" &
    DPID=$!
    # shellcheck disable=SC2086
    "$WORK/simfarm-worker" -farm "$ADDR" -name smokebox $WORKER_ARGS \
        -cache-dir "$WORK/worker-$tag.cache" -exit-idle 5s 2>"$WORK/worker-$tag.log" &
    WPID=$!

    # shellcheck disable=SC2086
    "$WORK/simfarm" -farm "$ADDR" $CLIENT_ARGS -submit examples/farm/specs.json -wait \
        -out "$WORK/cold-$tag.json"

    wait "$WPID" || { echo "farmsmoke[$tag]: worker exited non-zero" >&2; cat "$WORK/worker-$tag.log" >&2; exit 1; }
    WPID=""
    # SIGTERM must drain gracefully and exit 0.
    kill "$DPID"
    wait "$DPID" || { echo "farmsmoke[$tag]: coordinator did not drain cleanly on SIGTERM" >&2; cat "$WORK/simfarmd-$tag.log" >&2; exit 1; }
    DPID=""

    grep -q 'executed 3 jobs' "$WORK/worker-$tag.log" || {
        echo "farmsmoke[$tag]: worker did not execute all 3 jobs" >&2
        cat "$WORK/worker-$tag.log" >&2
        exit 1
    }

    echo "farmsmoke[$tag]: warm run (fresh coordinator, same corpus, no worker)"
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$corpus" "$@" 2>>"$WORK/simfarmd-$tag.log" &
    DPID=$!

    # shellcheck disable=SC2086
    "$WORK/simfarm" -farm "$ADDR" $CLIENT_ARGS -submit examples/farm/specs.json -wait \
        -out "$WORK/warm-$tag.json" 2>"$WORK/warm-$tag.progress"

    grep -c '(cached)$' "$WORK/warm-$tag.progress" | grep -qx 3 || {
        echo "farmsmoke[$tag]: warm resubmit was not fully served from the corpus" >&2
        cat "$WORK/warm-$tag.progress" >&2
        exit 1
    }
    cmp "$WORK/cold-$tag.json" "$WORK/warm-$tag.json" || {
        echo "farmsmoke[$tag]: warm summaries differ from cold summaries" >&2
        exit 1
    }
    kill "$DPID"
    wait "$DPID" || { echo "farmsmoke[$tag]: warm coordinator did not drain cleanly on SIGTERM" >&2; exit 1; }
    DPID=""

    echo "farmsmoke[$tag]: restart run (coordinator restarted mid-sweep, fresh corpus)"
    corpus="$WORK/corpus-restart-$tag"
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$corpus" "$@" 2>"$WORK/simfarmd-restart-$tag.log" &
    DPID=$!
    # shellcheck disable=SC2086
    "$WORK/simfarm-worker" -farm "$ADDR" -name smokebox $WORKER_ARGS \
        -cache-dir "$WORK/worker-restart-$tag.cache" -exit-idle 5s 2>"$WORK/worker-restart-$tag.log" &
    WPID=$!
    # shellcheck disable=SC2086
    "$WORK/simfarm" -farm "$ADDR" $CLIENT_ARGS -submit examples/farm/specs.json -wait \
        -out "$WORK/restart-$tag.json" 2>"$WORK/restart-$tag.progress" >/dev/null &
    CPID=$!

    tries=0
    until grep -q '] done ' "$WORK/worker-restart-$tag.log"; do
        tries=$((tries + 1))
        [ "$tries" -le 600 ] || { echo "farmsmoke[$tag]: worker never completed a job" >&2; cat "$WORK/worker-restart-$tag.log" >&2; exit 1; }
        sleep 0.05
    done
    # How far the client had got when its coordinator went away (a run
    # whose jobs all finished first still checks the drain and restart).
    reported=$(grep -c '^\[' "$WORK/restart-$tag.progress" || true)
    kill "$DPID"
    wait "$DPID" || { echo "farmsmoke[$tag]: coordinator did not drain cleanly on SIGTERM" >&2; cat "$WORK/simfarmd-restart-$tag.log" >&2; exit 1; }
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$corpus" "$@" 2>>"$WORK/simfarmd-restart-$tag.log" &
    DPID=$!

    wait "$CPID" || {
        echo "farmsmoke[$tag]: client did not survive the coordinator restart" >&2
        cat "$WORK/restart-$tag.progress" "$WORK/worker-restart-$tag.log" >&2
        exit 1
    }
    CPID=""
    cmp "$WORK/cold-$tag.json" "$WORK/restart-$tag.json" || {
        echo "farmsmoke[$tag]: summaries across the restart differ from cold summaries" >&2
        exit 1
    }
    wait "$WPID" || { echo "farmsmoke[$tag]: worker exited non-zero across the restart" >&2; cat "$WORK/worker-restart-$tag.log" >&2; exit 1; }
    WPID=""
    # Release the address for the next cycle.
    kill "$DPID"
    wait "$DPID" || { echo "farmsmoke[$tag]: restarted coordinator did not drain cleanly on SIGTERM" >&2; exit 1; }
    DPID=""
    echo "farmsmoke[$tag]: OK (3 jobs simulated cold, 3 served cached, restart after $reported/3 reported; summaries identical)"
}

if [ "$MODE" = "plain" ] || [ "$MODE" = "both" ]; then
    CLIENT_ARGS=""
    WORKER_ARGS=""
    run_cycle plain
fi

if [ "$MODE" = "tls" ] || [ "$MODE" = "both" ]; then
    CLIENT_ARGS="-ca $WORK/certs/ca.pem -cert $WORK/certs/client.pem -key $WORK/certs/client-key.pem -token $TOKEN"
    WORKER_ARGS="$CLIENT_ARGS"
    run_cycle tls \
        -tls-cert "$WORK/certs/server.pem" -tls-key "$WORK/certs/server-key.pem" \
        -tls-client-ca "$WORK/certs/ca.pem" -token "$TOKEN"

    echo "farmsmoke[tls]: negative checks (bad token, auth exit code)"
    # shellcheck disable=SC2086
    "$WORK/simfarmd" -addr "$ADDR" -cache-dir "$WORK/corpus-tls" \
        -tls-cert "$WORK/certs/server.pem" -tls-key "$WORK/certs/server-key.pem" \
        -tls-client-ca "$WORK/certs/ca.pem" -token "$TOKEN" 2>>"$WORK/simfarmd-tls.log" &
    DPID=$!
    sleep 1
    if "$WORK/simfarm" -farm "$ADDR" -ca "$WORK/certs/ca.pem" \
        -cert "$WORK/certs/client.pem" -key "$WORK/certs/client-key.pem" \
        -token wrong-token -status anything 2>/dev/null; then
        echo "farmsmoke[tls]: a wrong token must be rejected" >&2
        exit 1
    fi
    set +e
    "$WORK/simfarm-worker" -farm "$ADDR" -ca "$WORK/certs/ca.pem" \
        -cert "$WORK/certs/client.pem" -key "$WORK/certs/client-key.pem" \
        -token wrong-token -exit-idle 2s 2>>"$WORK/worker-auth.log"
    code=$?
    set -e
    [ "$code" -eq 4 ] || {
        echo "farmsmoke[tls]: worker with a bad token exited $code, want the distinct auth code 4" >&2
        cat "$WORK/worker-auth.log" >&2
        exit 1
    }
    kill "$DPID" && wait "$DPID" 2>/dev/null || true
    DPID=""
    echo "farmsmoke[tls]: OK (wrong token rejected, worker auth exit code 4)"
fi

echo "farmsmoke: OK ($MODE)"
