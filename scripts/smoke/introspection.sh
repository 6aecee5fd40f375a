#!/usr/bin/env bash
# Introspection smoke (DESIGN.md §17): a traced daemon scraped over the
# `metrics` verb (Prometheus exposition format validated by a pinned
# parser when python3 is present), its shutdown event log analyzed by
# hignn_obs (per-phase percentiles + dominant-phase attribution of slow
# exemplars), and the observation-only contract re-proved over the wire
# against an --obs-off daemon.
#
#   scripts/smoke/introspection.sh [build-dir]

source "$(dirname "$0")/lib.sh"

echo "== introspection smoke (Prometheus scrape + event log -> hignn_obs)"
smoke_store
# A traced daemon: --slow-us 1 makes every request a slow exemplar, and
# the structured event log lands in events.jsonl at shutdown.
start_daemon obs --store "$SMOKE_DIR/store.hgnnstore" \
  --events-out "$SMOKE_DIR/events.jsonl" --slow-us 1
SCORE_TRACED="$("$HIGNN_SERVE" score --port "$PORT" --user 3 --item 7 \
  --request-id-seed 42)"
TOPK_TRACED="$("$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5 \
  --request-id-seed 42)"
# Live Prometheus scrape of the server's shared registry over the wire.
"$HIGNN_SERVE" metrics --port "$PORT" > "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE hignn_serve_requests_score counter$' "$SMOKE_DIR/metrics.prom"
grep -q 'hignn_serve_latency_us_bucket{le="+Inf"}' "$SMOKE_DIR/metrics.prom"
if command -v python3 >/dev/null 2>&1; then
  # Pinned exposition-format parser: every line must be a TYPE comment or
  # a sample, histogram buckets must be cumulative, +Inf == _count.
  python3 - "$SMOKE_DIR/metrics.prom" <<'PY'
import re, sys
typed, samples = {}, []
for line in open(sys.argv[1]).read().splitlines():
    if not line:
        continue
    if line.startswith("#"):
        m = re.fullmatch(
            r"# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)",
            line)
        assert m, "bad comment line: %r" % line
        typed[m.group(1)] = m.group(2)
    else:
        m = re.fullmatch(
            r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)', line)
        assert m, "bad sample line: %r" % line
        samples.append((m.group(1), m.group(2), float(m.group(3))))
assert typed and all(n.startswith("hignn_") for n in typed), typed
for name, kind in sorted(typed.items()):
    if kind != "histogram":
        continue
    buckets = [v for n, _, v in samples if n == name + "_bucket"]
    assert buckets and buckets == sorted(buckets), (name, buckets)
    inf = [v for n, lbl, v in samples
           if n == name + "_bucket" and lbl == '{le="+Inf"}']
    count = [v for n, _, v in samples if n == name + "_count"]
    assert inf == count, (name, inf, count)
hists = sum(1 for k in typed.values() if k == "histogram")
print("prometheus exposition OK: %d series, %d histograms"
      % (len(typed), hists))
PY
else
  echo "python3 not installed; skipping exposition-format validation"
fi
# The live trace-dump verb serves the same event log without a restart.
"$HIGNN_SERVE" trace-dump --port "$PORT" > "$SMOKE_DIR/trace_dump.jsonl"
grep -q '"request_id"' "$SMOKE_DIR/trace_dump.jsonl"
stop_daemon
test -s "$SMOKE_DIR/events.jsonl"
grep -q '"slow": true' "$SMOKE_DIR/events.jsonl"
"$BUILD_DIR/tools/hignn_obs" analyze --events "$SMOKE_DIR/events.jsonl" \
  > "$SMOKE_DIR/obs_report.txt"
cat "$SMOKE_DIR/obs_report.txt"
grep -q 'phase latency percentiles' "$SMOKE_DIR/obs_report.txt"
grep -q 'dominant=' "$SMOKE_DIR/obs_report.txt"
# Observation-only, re-proved over the wire: an --obs-off daemon serving
# the same store answers byte-identical score and topk lines.
start_daemon obs_off --store "$SMOKE_DIR/store.hgnnstore" --obs-off
SCORE_OFF="$("$HIGNN_SERVE" score --port "$PORT" --user 3 --item 7)"
TOPK_OFF="$("$HIGNN_SERVE" topk --port "$PORT" --user 3 --k 5)"
[ "$SCORE_TRACED" = "$SCORE_OFF" ]
[ "$TOPK_TRACED" = "$TOPK_OFF" ]
stop_daemon
