#!/usr/bin/env bash
# Telemetry smoke: `hignn fit --metrics-out/--trace-out` artifacts are
# written and well-formed, and --obs-off leaves the model bitwise
# identical.
#
#   scripts/smoke/telemetry.sh [build-dir]

source "$(dirname "$0")/lib.sh"

echo "== telemetry smoke (fit --metrics-out/--trace-out, --obs-off parity)"
"$HIGNN" gen-data --preset tiny --users 80 --items 40 \
  --out "$SMOKE_DIR/clicks.tsv"
"$HIGNN" fit --graph "$SMOKE_DIR/clicks.tsv" --levels 2 --dim 8 --steps 40 \
  --out "$SMOKE_DIR/model.hgnn" \
  --metrics-out "$SMOKE_DIR/train_metrics.json" \
  --trace-out "$SMOKE_DIR/train_trace.json"
"$HIGNN" fit --graph "$SMOKE_DIR/clicks.tsv" --levels 2 --dim 8 --steps 40 \
  --out "$SMOKE_DIR/model_obs_off.hgnn" --obs-off
# Telemetry is observation-only: the model must be bitwise identical
# with collection on and off.
cmp "$SMOKE_DIR/model.hgnn" "$SMOKE_DIR/model_obs_off.hgnn"
test -s "$SMOKE_DIR/train_metrics.json"
test -s "$SMOKE_DIR/train_trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/train_metrics.json" "$SMOKE_DIR/train_trace.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
for key in ("counters", "gauges", "histograms", "series"):
    assert key in metrics, "missing section: " + key
assert metrics["counters"].get("train.steps", 0) > 0, metrics["counters"]
trace = json.load(open(sys.argv[2]))
events = trace["traceEvents"]
assert any(e["name"] == "fit" for e in events), "missing fit span"
assert any(e["name"] == "fit.step" for e in events), "missing fit.step span"
print("telemetry artifacts OK: %d trace events" % len(events))
PY
else
  echo "python3 not installed; skipping telemetry JSON validation"
fi
