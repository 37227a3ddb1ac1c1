#!/usr/bin/env bash
# smoke_server.sh — end-to-end smoke of cmd/cijserver: build and start the
# server, load two generated datasets, run a buffered join and a streamed
# join, and assert HTTP 200 with non-empty pairs; then exercise the
# introspection surface (query journal, metrics history, Chrome trace
# export). CI runs this on every push (`make smoke-server`); it needs only
# curl + grep/sed.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${PORT:-18080}
base="http://127.0.0.1:$PORT"
tmp=$(mktemp -d)
go build -o "$tmp/cijserver" ./cmd/cijserver

"$tmp/cijserver" -addr "127.0.0.1:$PORT" -history-interval 100ms \
  -journal "$tmp/journal.jsonl" >"$tmp/server.log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

ready=
for _ in $(seq 1 100); do
  if curl -sf "$base/stats" >/dev/null 2>&1; then ready=1; break; fi
  sleep 0.1
done
[ -n "$ready" ] || { echo "server never became ready"; cat "$tmp/server.log"; exit 1; }

curl -sf -X POST "$base/datasets/a?gen=uniform&n=2000&seed=1" >/dev/null
curl -sf -X POST "$base/datasets/b?gen=clustered&n=2000&clusters=16&seed=2" >/dev/null

resp=$(curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"nm","topk":3}')
count=$(printf '%s' "$resp" | sed -n 's/.*"count":\([0-9][0-9]*\).*/\1/p')
if [ -z "$count" ] || [ "$count" -le 0 ]; then
  echo "join returned no pairs: $resp"
  exit 1
fi

# The cached repeat must say so.
printf '%s' "$(curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"nm","topk":3}')" | grep -q '"cached":true' || {
  echo "repeat join was not served from cache"
  exit 1
}

# The NDJSON stream ends in a summary line.
curl -sf "$base/join/stream?left=a&right=b&algo=parallel&workers=2&topk=5" \
  | tail -n 1 | grep -q '"type":"summary"' || {
  echo "stream did not end with a summary line"
  exit 1
}

# The in-memory grid backend answers over HTTP and agrees on cardinality
# with the NM join above (same datasets, same pair set).
grid_count=$(curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"grid","topk":3}' \
  | sed -n 's/.*"count":\([0-9][0-9]*\).*/\1/p')
if [ -z "$grid_count" ] || [ "$grid_count" != "$count" ]; then
  echo "grid join count $grid_count disagrees with nm count $count"
  exit 1
fi

# PM-CIJ and FM-CIJ are not served (cijtool join and cijbench run them):
# asking for one is the client's 400, naming the algorithms the service runs.
status=$(curl -s -o "$tmp/pm.json" -w '%{http_code}' -X POST "$base/join" \
  -H 'Content-Type: application/json' -d '{"left":"a","right":"b","algo":"pm"}')
if [ "$status" != 400 ] || ! grep -q 'nm, parallel, grid or auto' "$tmp/pm.json"; then
  echo "algo=pm answered $status: $(cat "$tmp/pm.json")"
  exit 1
fi

curl -sf "$base/stats" | grep -q '"joins_served":4' || {
  echo "stats did not report 4 joins served"
  exit 1
}

# --- observability surface ---

# ?explain=1 returns the plan without executing (joins_served must not move).
curl -sf -X POST "$base/join?explain=1" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b"}' | grep -q '"reason"' || {
  echo "explain did not return a reason"
  exit 1
}
curl -sf "$base/stats" | grep -q '"joins_served":4' || {
  echo "explain executed a join"
  exit 1
}

# A traced join carries the per-phase trace block.
curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"nm","storage":"paged","topk":1,"trace":true}' | grep -q '"trace":{' || {
  echo "traced join returned no trace block"
  exit 1
}

# /metrics is parseable Prometheus text exposition with the core families
# present and the I/O counters moved by the joins above.
metrics=$(curl -sf "$base/metrics")
for family in cij_http_requests_total cij_joins_total cij_join_seconds_bucket \
              cij_pages_read_total cij_logical_reads_total cij_planner_decisions_total; do
  printf '%s\n' "$metrics" | grep -q "^$family" || {
    echo "metrics family $family missing"
    exit 1
  }
done
# Every sample line: metric_name{optional="labels"} value.
bad=$(printf '%s\n' "$metrics" | grep -v '^#' \
  | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$' || true)
if [ -n "$bad" ]; then
  echo "unparseable metrics lines:"
  printf '%s\n' "$bad"
  exit 1
fi
pages=$(printf '%s\n' "$metrics" | sed -n 's/^cij_pages_read_total \([0-9][0-9]*\).*/\1/p')
if [ -z "$pages" ] || [ "$pages" -le 0 ]; then
  echo "cij_pages_read_total did not move: '$pages'"
  exit 1
fi

# Runtime, build and cache-counter families are exported too.
for family in go_goroutines go_heap_inuse_bytes go_gc_pause_seconds_bucket \
              process_uptime_seconds cij_build_info cij_cache_hits_total \
              cij_cache_misses_total; do
  printf '%s\n' "$metrics" | grep -q "^$family" || {
    echo "metrics family $family missing"
    exit 1
  }
done

# --- query journal ---

# A fresh computed join gets a query ID; its journal record's stats block
# must be byte-identical to the response's.
join_resp=$(curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"parallel","storage":"paged","workers":1,"topk":1}')
qid=$(printf '%s' "$join_resp" | sed -n 's/.*"query_id":\([0-9][0-9]*\).*/\1/p')
if [ -z "$qid" ]; then
  echo "join response carries no query_id: $join_resp"
  exit 1
fi
resp_stats=$(printf '%s' "$join_resp" | sed -n 's/.*"stats":{\([^}]*\)}.*/\1/p')
journal_rec=$(curl -sf "$base/debug/queries/$qid")
rec_stats=$(printf '%s' "$journal_rec" | sed -n 's/.*"stats":{\([^}]*\)}.*/\1/p')
if [ -z "$resp_stats" ] || [ "$resp_stats" != "$rec_stats" ]; then
  echo "journal stats {$rec_stats} != response stats {$resp_stats}"
  exit 1
fi

# The listing endpoint filters and reports the total.
curl -sf "$base/debug/queries?algo=parallel&limit=5" | grep -q '"algo":"parallel"' || {
  echo "/debug/queries?algo=parallel did not list the parallel join"
  exit 1
}

# The journaled join's trace renders as Chrome trace-event JSON.
chrome=$(curl -sf "$base/debug/queries/$qid/trace.json")
for field in '"traceEvents"' '"ph"' '"ts"' '"dur"' '"pid"' '"tid"'; do
  printf '%s' "$chrome" | grep -q "$field" || {
    echo "trace.json lacks $field: $chrome"
    exit 1
  }
done

# The JSONL sink received one line per served join, replayable as JSON.
if [ ! -s "$tmp/journal.jsonl" ]; then
  echo "-journal sink file empty"
  exit 1
fi
grep -q "\"id\":$qid" "$tmp/journal.jsonl" || {
  echo "journal sink lacks query $qid"
  exit 1
}

# --- metrics history ---

# At -history-interval 100ms the self-scraper has taken several samples by
# now; the windowed view must report them plus the join traffic above.
sleep 0.3
history=$(curl -sf "$base/stats/history?window=1h")
samples=$(printf '%s' "$history" | sed -n 's/.*"samples":\([0-9][0-9]*\).*/\1/p')
if [ -z "$samples" ] || [ "$samples" -lt 2 ]; then
  echo "stats/history reports $samples samples, want >= 2: $history"
  exit 1
fi
for field in '"requests_per_sec"' '"joins_per_sec"' '"http_latency"' \
             '"cache_hit_ratio"' '"series"'; do
  printf '%s' "$history" | grep -q "$field" || {
    echo "stats/history lacks $field"
    exit 1
  }
done

# /stats carries the build block.
curl -sf "$base/stats" | grep -q '"build":{"go_version"' || {
  echo "/stats lacks build info"
  exit 1
}

# --- live mutation + subscription ---

# Subscribe to the (a, b) join's churn stream in the background, then
# mutate dataset a: an insert must surface as +pair events (a new point's
# Voronoi cell always intersects some opposite cell), deleting the same
# point must surface as -pair events, and the live count must be restored.
curl -sN "$base/join/subscribe?left=a&right=b" >"$tmp/churn.ndjson" &
subpid=$!
trap 'kill "$subpid" "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
ok=
for _ in $(seq 1 50); do
  if grep -q '"type":"subscribed"' "$tmp/churn.ndjson" 2>/dev/null; then ok=1; break; fi
  sleep 0.1
done
[ -n "$ok" ] || { echo "subscribe handshake never arrived"; cat "$tmp/churn.ndjson"; exit 1; }

mut=$(curl -sf -X POST "$base/datasets/a/points" -H 'Content-Type: application/json' \
  -d '{"insert":[{"x":5000,"y":5000}]}')
printf '%s' "$mut" | grep -q '"version":2' || {
  echo "insert did not bump the version: $mut"
  exit 1
}
new_id=$(printf '%s' "$mut" | sed -n 's/.*"inserted_ids":\[\([0-9][0-9]*\)\].*/\1/p')
if [ -z "$new_id" ]; then
  echo "insert response carries no inserted_ids: $mut"
  exit 1
fi
ok=
for _ in $(seq 1 50); do
  if grep -q '"type":"+pair"' "$tmp/churn.ndjson" 2>/dev/null; then ok=1; break; fi
  sleep 0.1
done
[ -n "$ok" ] || { echo "insert produced no +pair event"; cat "$tmp/churn.ndjson"; exit 1; }

curl -sf -X DELETE "$base/datasets/a/points/$new_id" | grep -q '"version":3' || {
  echo "delete did not bump the version"
  exit 1
}
ok=
for _ in $(seq 1 50); do
  if grep -q '"type":"-pair"' "$tmp/churn.ndjson" 2>/dev/null; then ok=1; break; fi
  sleep 0.1
done
[ -n "$ok" ] || { echo "delete produced no -pair event"; cat "$tmp/churn.ndjson"; exit 1; }

# Every mutation's event burst ends with one delta summary line.
deltas=$(grep -c '"type":"delta"' "$tmp/churn.ndjson" || true)
if [ "$deltas" -ne 2 ]; then
  echo "expected 2 delta summary lines, got $deltas"
  cat "$tmp/churn.ndjson"
  exit 1
fi

# A delta run's journal record keeps its trace: the first delta line's
# query ID serves a Chrome trace that holds the run's churn span.
delta_qid=$(sed -n 's/.*"type":"delta","query_id":\([0-9][0-9]*\).*/\1/p' "$tmp/churn.ndjson" | head -n 1)
if [ -z "$delta_qid" ]; then
  echo "delta line carries no query_id"
  cat "$tmp/churn.ndjson"
  exit 1
fi
delta_trace=$(curl -sf "$base/debug/queries/$delta_qid/trace.json") || {
  echo "delta run $delta_qid serves no trace.json"
  exit 1
}
printf '%s' "$delta_trace" | grep -q '"name":"churn"' || {
  echo "delta run $delta_qid's trace has no churn event: $delta_trace"
  exit 1
}

# Insert + delete of the same point restores the live count; the
# tombstone stays on the books.
curl -sf "$base/datasets" | grep -q '"name":"a","version":3,"points":2000,"tombstones":1' || {
  echo "dataset a did not return to 2000 live points with 1 tombstone"
  curl -sf "$base/datasets"
  exit 1
}

# The mutation surface is on the books: /stats and /metrics agree.
stats=$(curl -sf "$base/stats")
printf '%s' "$stats" | grep -q '"mutations":2' || {
  echo "/stats does not report 2 mutations: $stats"
  exit 1
}
printf '%s' "$stats" | grep -q '"delta_runs":2' || {
  echo "/stats does not report 2 delta runs: $stats"
  exit 1
}
metrics=$(curl -sf "$base/metrics")
for family in cij_mutations_total cij_delta_runs_total cij_pair_churn_total \
              cij_delta_seconds_bucket cij_panics_total; do
  printf '%s\n' "$metrics" | grep -q "^$family" || {
    echo "metrics family $family missing after mutations"
    exit 1
  }
done
printf '%s\n' "$metrics" | grep -q '^cij_delta_runs_total 2' || {
  echo "cij_delta_runs_total did not reach 2"
  exit 1
}

# A post-mutation full join answers from the new version (version-
# qualified cache keys make staleness structurally impossible).
curl -sf -X POST "$base/join" -H 'Content-Type: application/json' \
  -d '{"left":"a","right":"b","algo":"nm","topk":1}' | grep -q '"left_version":3' || {
  echo "post-mutation join did not execute against version 3"
  exit 1
}

kill "$subpid" 2>/dev/null || true

echo "server smoke OK: $count pairs, cache hit, stream summary, pm refused, explain, trace, /metrics, journal, history, live mutation churn and its delta trace verified"
