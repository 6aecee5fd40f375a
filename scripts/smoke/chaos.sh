#!/usr/bin/env bash
# Serving chaos smoke: a HIGNN_FAULT_INJECT-failed reload, a wire reload
# and a SIGHUP hot-swap, with bitwise score stability throughout.
#
#   scripts/smoke/chaos.sh [build-dir]

source "$(dirname "$0")/lib.sh"

echo "== serving chaos smoke (fault-injected reload + SIGHUP hot-swap)"
smoke_store
# serve.store.open is one-shot at hit 2: the initial open (hit 1) passes,
# the first reload (hit 2) fails and must leave generation 1 serving, and
# every open after that succeeds.
HIGNN_FAULT_INJECT="serve.store.open=fail@2" \
  start_daemon chaos --store "$SMOKE_DIR/store.hgnnstore"
HEALTH="$("$HIGNN_SERVE" health --port "$PORT" --retries 3 --backoff-ms 10)"
[ "$HEALTH" = "ok generation=1" ]
SCORE_BEFORE="$("$HIGNN_SERVE" score --port "$PORT" --user 3 --item 7 \
  --retries 3 --backoff-ms 10)"
if "$HIGNN_SERVE" reload --port "$PORT"; then
  echo "expected fault-injected reload to fail" >&2
  exit 1
fi
HEALTH="$("$HIGNN_SERVE" health --port "$PORT")"
[ "$HEALTH" = "ok generation=1" ]
RELOAD="$("$HIGNN_SERVE" reload --port "$PORT")"
[ "$RELOAD" = "reloaded generation=2" ]
# SIGHUP re-opens the current store path with zero downtime.
kill -HUP "$SERVE_PID"
for _ in $(seq 1 100); do
  HEALTH="$("$HIGNN_SERVE" health --port "$PORT")"
  [ "$HEALTH" = "ok generation=3" ] && break
  sleep 0.1
done
[ "$HEALTH" = "ok generation=3" ]
SCORE_AFTER="$("$HIGNN_SERVE" score --port "$PORT" --user 3 --item 7)"
# Bitwise score stability across a failed reload, a wire reload, and a
# SIGHUP reload of the same store.
[ "$SCORE_BEFORE" = "$SCORE_AFTER" ]
stop_daemon
