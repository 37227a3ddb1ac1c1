#!/usr/bin/env bash
# crash_smoke.sh — end-to-end durability smoke of cmd/cijserver: start the
# server with -data-dir, load datasets, kill -9 it in the middle of a
# mutation stream, fsck the directory, restart, and assert the recovered
# state is an exactly-installed version whose join agrees with the
# independent in-memory grid backend (the oracle: it recomputes from the
# recovered points, not the restored tree pages). Finishes with a SIGTERM
# cycle proving the clean-shutdown marker round-trips. CI runs this in the
# server-smoke job (`make crash-smoke`); it needs only curl + grep/sed.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${PORT:-18081}
base="http://127.0.0.1:$PORT"
tmp=$(mktemp -d)
data="$tmp/data"
go build -o "$tmp/cijserver" ./cmd/cijserver
go build -o "$tmp/cijtool" ./cmd/cijtool

start_server() {
  "$tmp/cijserver" -addr "127.0.0.1:$PORT" -data-dir "$data" >>"$tmp/server.log" 2>&1 &
  pid=$!
}
wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$base/stats" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "server never became ready"; cat "$tmp/server.log"; exit 1
}

start_server
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_ready

curl -sf -X POST "$base/datasets/a?gen=uniform&n=2000&seed=1" >/dev/null
curl -sf -X POST "$base/datasets/b?gen=clustered&n=2000&clusters=16&seed=2" >/dev/null

# Stream mutation batches and kill -9 the server mid-stream. Every batch
# inserts exactly one point, so version v implies 2000 + (v - 1) live
# points — the invariant recovery is held to below.
acked=1
for i in $(seq 1 200); do
  resp=$(curl -sf -X POST "$base/datasets/a/points" -H 'Content-Type: application/json' \
    -d "{\"insert\":[{\"x\":$((i * 37 % 10000)),\"y\":$((i * 53 % 10000))}]}" || true)
  v=$(printf '%s' "$resp" | sed -n 's/.*"version":\([0-9][0-9]*\).*/\1/p')
  if [ -z "$v" ]; then break; fi
  acked=$v
  if [ "$i" -eq 23 ]; then
    kill -9 "$pid"   # mid-stream, no warning, no flush
    break
  fi
done
wait "$pid" 2>/dev/null || true
if [ "$acked" -lt 2 ]; then
  echo "no mutation was acknowledged before the kill"; exit 1
fi

# The directory must be recoverable as it stands (unclean is expected).
"$tmp/cijtool" fsck -data-dir "$data" >"$tmp/fsck1.out" || {
  echo "fsck failed on the crashed directory:"; cat "$tmp/fsck1.out"; exit 1
}
grep -q 'unclean shutdown' "$tmp/fsck1.out" || {
  echo "fsck did not flag the kill -9 as unclean:"; cat "$tmp/fsck1.out"; exit 1
}

# Restart on the same directory: every acknowledged batch must be back.
start_server
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_ready

listing=$(curl -sf "$base/datasets")
rec_v=$(printf '%s' "$listing" | sed -n 's/.*"name":"a","version":\([0-9][0-9]*\).*/\1/p')
rec_pts=$(printf '%s' "$listing" | sed -n 's/.*"name":"a","version":[0-9]*,"points":\([0-9][0-9]*\).*/\1/p')
if [ -z "$rec_v" ] || [ "$rec_v" -lt "$acked" ]; then
  echo "recovered version $rec_v below acknowledged $acked: $listing"; exit 1
fi
if [ "$rec_pts" != $((2000 + rec_v - 1)) ]; then
  echo "recovered version $rec_v should hold $((2000 + rec_v - 1)) points, has $rec_pts"; exit 1
fi
grep -q '"clean_shutdown":false' "$tmp/server.log" || {
  echo "recovery log did not report the unclean shutdown"; exit 1
}

# Recovered join == oracle: nm reads the restored tree pages, grid
# recomputes from the recovered point set in memory. Same pair count or
# the restore corrupted something.
nm=$(curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"nm","topk":1}' \
  | sed -n 's/.*"count":\([0-9][0-9]*\).*/\1/p')
oracle=$(curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"grid","topk":1}' \
  | sed -n 's/.*"count":\([0-9][0-9]*\).*/\1/p')
if [ -z "$nm" ] || [ "$nm" != "$oracle" ]; then
  echo "recovered nm join ($nm pairs) disagrees with grid oracle ($oracle)"; exit 1
fi

# Graceful cycle: SIGTERM must flush, mark clean, and recover clean.
kill -TERM "$pid"
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$pid" 2>/dev/null && { echo "server ignored SIGTERM"; exit 1; }
"$tmp/cijtool" fsck -data-dir "$data" >"$tmp/fsck2.out" || {
  echo "fsck failed after graceful shutdown:"; cat "$tmp/fsck2.out"; exit 1
}
grep -q 'clean shutdown marker present' "$tmp/fsck2.out" || {
  echo "graceful shutdown left no clean marker:"; cat "$tmp/fsck2.out"; exit 1
}

start_server
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
wait_ready
grep -q '"clean_shutdown":true' "$tmp/server.log" || {
  echo "second boot did not log a clean recovery"; exit 1
}
final_v=$(curl -sf "$base/datasets" | sed -n 's/.*"name":"a","version":\([0-9][0-9]*\).*/\1/p')
if [ "$final_v" != "$rec_v" ]; then
  echo "clean restart changed the version: $rec_v -> $final_v"; exit 1
fi
kill -TERM "$pid"; wait "$pid" 2>/dev/null || true

echo "crash smoke OK: kill -9 at v$acked recovered to v$rec_v, join matches oracle, clean-shutdown cycle verified"
