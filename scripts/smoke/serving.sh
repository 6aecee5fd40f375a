#!/usr/bin/env bash
# Serving smoke: export-store -> daemon -> every client verb, then the
# retrieval index (beamed-vs-exact topk parity, a second export of the
# same flags byte-identical and serving the same top-k after a reload —
# the index is built at store open and stored nowhere — and a truncated
# store rejected on reload), then cross-ISA parity (a HIGNN_SIMD=off
# daemon answers byte-identically).
#
#   scripts/smoke/serving.sh [build-dir]

source "$(dirname "$0")/lib.sh"

echo "== hignn_serve smoke (export-store -> daemon -> client verbs)"
smoke_store
start_daemon serving --store "$SMOKE_DIR/store.hgnnstore" \
  --metrics-out "$SMOKE_DIR/metrics.json"
"$HIGNN_SERVE" health --port "$PORT"
SCORE="$("$HIGNN_SERVE" score --port "$PORT" --user 3 --item 7)"
echo "$SCORE"
"$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5
"$HIGNN_SERVE" stats --port "$PORT"

echo "== retrieval-index smoke (beamed vs exact, re-export, truncated store)"
# Beamed (server default --topk-beam) vs exact (--beam -1): at this scale
# the beam never prunes, so the answers must match byte for byte.
TOPK_BEAMED="$("$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5)"
TOPK_EXACT="$("$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5 --beam -1)"
[ "$TOPK_BEAMED" = "$TOPK_EXACT" ]
# Export is deterministic: the same flags give the same bytes, and the
# index the daemon builds when it opens the second file routes the same
# top-k.
"$HIGNN" export-store --preset tiny --users 120 --items 60 --steps 30 \
  --out "$SMOKE_DIR/store_again.hgnnstore"
cmp "$SMOKE_DIR/store.hgnnstore" "$SMOKE_DIR/store_again.hgnnstore"
RELOAD="$("$HIGNN_SERVE" reload --port "$PORT" \
  --store "$SMOKE_DIR/store_again.hgnnstore")"
[ "$RELOAD" = "reloaded generation=2" ]
TOPK_AGAIN="$("$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5)"
[ "$TOPK_AGAIN" = "$TOPK_BEAMED" ]
# A truncated store is rejected at open (IOError), so the reload fails
# and generation 2 keeps serving.
head -c "$(( $(wc -c < "$SMOKE_DIR/store.hgnnstore") - 64 ))" \
  "$SMOKE_DIR/store.hgnnstore" > "$SMOKE_DIR/store_truncated.hgnnstore"
if "$HIGNN_SERVE" reload --port "$PORT" \
    --store "$SMOKE_DIR/store_truncated.hgnnstore"; then
  echo "expected reload of truncated store to fail" >&2
  exit 1
fi
HEALTH="$("$HIGNN_SERVE" health --port "$PORT")"
[ "$HEALTH" = "ok generation=2" ]
stop_daemon
test -s "$SMOKE_DIR/metrics.json"

echo "== cross-ISA smoke (scalar-kernel daemon on the same store)"
# Every kernel is bitwise identical on every ISA path (src/nn/simd.h), and
# the client prints scores with %.9g, which round-trips a float: equal
# lines mean equal bits.
HIGNN_SIMD=off start_daemon serving_scalar \
  --store "$SMOKE_DIR/store.hgnnstore"
[ "$("$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5)" = "$TOPK_BEAMED" ]
[ "$("$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5 --beam -1)" \
  = "$TOPK_EXACT" ]
[ "$("$HIGNN_SERVE" score --port "$PORT" --user 3 --item 7)" = "$SCORE" ]
stop_daemon
