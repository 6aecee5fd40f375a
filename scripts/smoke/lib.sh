# Shared set-up for the end-to-end smokes in scripts/smoke/, sourced by
# each of them. Every smoke runs the same way from scripts/run_checks.sh
# and from CI:
#
#   scripts/smoke/<name>.sh [build-dir]
#
# Each smoke works in a fresh temp dir (SMOKE_DIR), removed on exit. A
# daemon still running when a smoke exits (a failed assertion) is killed.

set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/../.."
BUILD_DIR="${1:-build}"
HIGNN="$BUILD_DIR/tools/hignn"
HIGNN_SERVE="$BUILD_DIR/tools/hignn_serve"
SERVE_PID=""

smoke_cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$SMOKE_DIR"
}
SMOKE_DIR="$(mktemp -d)"
trap smoke_cleanup EXIT

# Exports the tiny store the serving smokes run against.
smoke_store() {
  "$HIGNN" export-store --preset tiny --users 120 --items 60 --steps 30 \
    --out "$SMOKE_DIR/store.hgnnstore"
}

# start_daemon NAME [serve flags...]: starts `hignn_serve serve` on an
# ephemeral port in the background and waits until it has written its
# port file. Sets SERVE_PID and PORT.
start_daemon() {
  local port_file="$SMOKE_DIR/$1.port"
  shift
  "$HIGNN_SERVE" serve --port 0 --port-file "$port_file" "$@" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    sleep 0.1
  done
  PORT="$(cat "$port_file")"
}

# Graceful SIGTERM shutdown; fails the smoke unless the daemon exits 0.
stop_daemon() {
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  SERVE_PID=""
}
