#!/usr/bin/env bash
# Serve conformance: a daemon answering over a Unix socket must give
# byte-identical text to the one-shot CLI for the same request and seed
# (both render through Serve.Engine), survive malformed and oversized
# requests (an exception of any kind is answered as an error), report
# plan-cache hits through the metrics op, fast-reject
# when the admission queue is full, and stop cleanly on SIGTERM.
set -euo pipefail

cli="$1"
workdir="$(mktemp -d)"
server_pid=""
overload_pid=""
deep_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  [ -n "$overload_pid" ] && kill "$overload_pid" 2>/dev/null || true
  [ -n "$deep_pid" ] && kill "$deep_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "SERVE TEST FAILED: $1" >&2; exit 1; }

await_ready() { # await_ready <logfile>
  for _ in $(seq 1 200); do
    grep -q "listening on" "$1" 2>/dev/null && return 0
    sleep 0.05
  done
  fail "daemon never became ready ($1)"
}

# data: the same relation as CSV and as a packed pagefile ---------------
"$cli" generate -n 20000 --dist uniform:0:999 -o "$workdir/u.csv" >/dev/null
"$cli" pack "$workdir/u.csv" "$workdir/u.raf" >/dev/null
"$cli" generate -n 20000 --dist uniform:0:999 -c b --seed 5 -o "$workdir/b.csv" >/dev/null

sock="$workdir/raestat.sock"
# The daemon runs with the optimizer armed whatever the caller's
# environment says, so "optimize": true requests compare with the
# one-shot --optimize below.
env -u RAESTAT_NO_OPTIMIZE "$cli" serve --rel "r=$workdir/u.csv" --rel "p=$workdir/u.raf" --rel "s=$workdir/b.csv" \
  --socket "$sock" --plan-cache 16 --queue-limit 64 \
  > "$workdir/serve.log" 2>&1 &
server_pid=$!
await_ready "$workdir/serve.log"

# one-shot reference outputs (identical arguments and default seed) -----
"$cli" estimate "$workdir/u.csv" --where "a < 300" -f 0.05 > "$workdir/ref.est"
"$cli" estimate "$workdir/u.raf" --where "a < 300" -f 0.05 > "$workdir/ref.raf"
"$cli" query "select[a < 300](r)" --rel "r=$workdir/u.csv" -f 0.05 -g 4 > "$workdir/ref.query"
"$cli" sql "SELECT COUNT(*) FROM r WHERE a < 300" --rel "r=$workdir/u.csv" -f 0.05 -g 4 \
  > "$workdir/ref.sql"
"$cli" explain estimate "$workdir/u.csv" --where "a < 300" -f 0.05 > "$workdir/ref.explain"

req_est='{"op": "estimate", "relation": "r", "where": "a < 300", "fraction": 0.05}'
req_raf='{"op": "estimate", "relation": "p", "where": "a < 300", "fraction": 0.05}'
req_query='{"op": "query", "expr": "select[a < 300](r)", "fraction": 0.05, "groups": 4}'
req_sql='{"op": "sql", "query": "SELECT COUNT(*) FROM r WHERE a < 300", "fraction": 0.05, "groups": 4}'
req_explain='{"op": "explain", "target": "estimate", "relation": "r", "where": "a < 300", "fraction": 0.05}'

# 8 concurrent clients, mixed request shapes: every response must be
# byte-identical to the one-shot reference for that shape (cmp, not grep)
declare -a pids=() outs=() refs=()
for i in $(seq 0 7); do
  case $((i % 4)) in
    0) req="$req_est"   ; ref="$workdir/ref.est"   ;;
    1) req="$req_query" ; ref="$workdir/ref.query" ;;
    2) req="$req_sql"   ; ref="$workdir/ref.sql"   ;;
    3) req="$req_raf"   ; ref="$workdir/ref.raf"   ;;
  esac
  out="$workdir/client.$i.out"
  "$cli" client --socket "$sock" --text "$req" > "$out" &
  pids+=($!) outs+=("$out") refs+=("$ref")
done
for i in $(seq 0 7); do
  wait "${pids[$i]}" || fail "concurrent client $i exited nonzero"
done
for i in $(seq 0 7); do
  cmp -s "${outs[$i]}" "${refs[$i]}" \
    || fail "client $i output differs from one-shot CLI (${refs[$i]})"
done

# explain through the daemon is the one-shot plan, byte for byte --------
"$cli" client --socket "$sock" --text "$req_explain" > "$workdir/client.explain"
cmp -s "$workdir/client.explain" "$workdir/ref.explain" \
  || fail "served explain differs from one-shot explain"

# plan-cache effectiveness is observable: the mixed load above compiled
# each shape once and hit on every repeat, and query/sql normalize to
# the same key (4 request shapes, only 3 distinct plans)
metrics="$("$cli" client --socket "$sock" '{"op": "metrics"}')"
echo "$metrics" | grep -q '"schema": "raestat-serve/1"' || fail "metrics schema"
echo "$metrics" | grep -q '"misses": 3' || fail "expected 3 plan compiles, got: $metrics"
echo "$metrics" | grep -q '"hits": 5' || fail "expected 5 plan-cache hits, got: $metrics"

# a served join is the one-shot join, byte for byte: the daemon's
# samples gather their columns from the warm base views, the CLI's
# encode their own rows, and both must count the same pairs
"$cli" query "select[a < 300](r) join[a = b] s" \
  --rel "r=$workdir/u.csv" --rel "s=$workdir/b.csv" -f 0.05 -g 4 > "$workdir/ref.jquery"
"$cli" sql "SELECT COUNT(*) FROM r JOIN s ON a = b WHERE a < 300" \
  --rel "r=$workdir/u.csv" --rel "s=$workdir/b.csv" -f 0.05 -g 4 > "$workdir/ref.jsql"
"$cli" client --socket "$sock" --text \
  '{"op": "query", "expr": "select[a < 300](r) join[a = b] s", "fraction": 0.05, "groups": 4}' \
  > "$workdir/client.jquery"
"$cli" client --socket "$sock" --text \
  '{"op": "sql", "query": "SELECT COUNT(*) FROM r JOIN s ON a = b WHERE a < 300", "fraction": 0.05, "groups": 4}' \
  > "$workdir/client.jsql"
cmp -s "$workdir/client.jquery" "$workdir/ref.jquery" \
  || fail "served join query differs from one-shot CLI"
cmp -s "$workdir/client.jsql" "$workdir/ref.jsql" \
  || fail "served join sql differs from one-shot CLI"

# an optimized served join is the one-shot --optimize, byte for byte:
# the planner prices the placements from the daemon's warm views and
# the CLI's fresh ones, and both must pick and run the same plan
env -u RAESTAT_NO_OPTIMIZE "$cli" query "select[a < 300](r) join[a = b] s" \
  --rel "r=$workdir/u.csv" --rel "s=$workdir/b.csv" -f 0.05 -g 4 --optimize \
  > "$workdir/ref.oquery"
env -u RAESTAT_NO_OPTIMIZE "$cli" sql "SELECT COUNT(*) FROM r JOIN s ON a = b WHERE a < 300" \
  --rel "r=$workdir/u.csv" --rel "s=$workdir/b.csv" -f 0.05 -g 4 --optimize \
  > "$workdir/ref.osql"
"$cli" client --socket "$sock" --text \
  '{"op": "query", "expr": "select[a < 300](r) join[a = b] s", "fraction": 0.05, "groups": 4, "optimize": true}' \
  > "$workdir/client.oquery"
"$cli" client --socket "$sock" --text \
  '{"op": "sql", "query": "SELECT COUNT(*) FROM r JOIN s ON a = b WHERE a < 300", "fraction": 0.05, "groups": 4, "optimize": true}' \
  > "$workdir/client.osql"
cmp -s "$workdir/client.oquery" "$workdir/ref.oquery" \
  || fail "served optimized query differs from one-shot query --optimize"
cmp -s "$workdir/client.osql" "$workdir/ref.osql" \
  || fail "served optimized sql differs from one-shot sql --optimize"

# --pages through the daemon: cluster sampling over the retained paged
# view, byte-identical to the one-shot CLI for the same seed.  The
# second request exercises the warm page-cache path (same bytes out).
"$cli" estimate "$workdir/u.raf" --pages 20 --where "a < 300" > "$workdir/ref.pages"
req_pages='{"op": "estimate", "relation": "p", "where": "a < 300", "pages": 20}'
"$cli" client --socket "$sock" --text "$req_pages" > "$workdir/client.pages"
cmp -s "$workdir/client.pages" "$workdir/ref.pages" \
  || fail "served --pages estimate differs from one-shot CLI"
"$cli" client --socket "$sock" --text "$req_pages" > "$workdir/client.pages2"
cmp -s "$workdir/client.pages2" "$workdir/ref.pages" \
  || fail "warm repeat of --pages estimate changed bytes"

# streaming writes: a maintained stream answers estimates fresh ---------
# The first write converts the bound relation into a maintained stream;
# the estimate right after the batch already reflects it (staleness 0
# epochs, no base-table rescan) and is byte-identical to the one-shot
# `raestat ingest` that performed the same writes with the same seed.
printf 'a:int\n5\n5\n5\n5\n5\n' > "$workdir/ins.csv"
"$cli" ingest "$workdir/u.csv" --inserts "$workdir/ins.csv" --capacity 300 \
  --where "a < 300" | tail -n +2 > "$workdir/ref.ingest"
req_ingest='{"op": "ingest", "relation": "r", "capacity": 300, "insert": [{"a": 5}, {"a": 5}, {"a": 5}, {"a": 5}, {"a": 5}]}'
out="$("$cli" client --socket "$sock" "$req_ingest")"
echo "$out" | grep -q '"first_id": 20000' || fail "served ingest ids, got: $out"
echo "$out" | grep -q '"population": 20005' || fail "served ingest population, got: $out"
"$cli" client --socket "$sock" --text \
  '{"op": "estimate", "relation": "r", "where": "a < 300"}' > "$workdir/client.stream"
cmp -s "$workdir/client.stream" "$workdir/ref.ingest" \
  || fail "served stream estimate differs from one-shot ingest --where"

# the metrics op reports the stream status row (needs_rescan included)
metrics="$("$cli" client --socket "$sock" '{"op": "metrics"}')"
echo "$metrics" | grep -qF '"streams": [{"relation": "r", "epoch": 2, "population": 20005' \
  || fail "metrics stream row, got: $metrics"
echo "$metrics" | grep -q '"needs_rescan": false' || fail "metrics needs_rescan"

# query through the daemon sees the stream via the snapshot overlay
out="$("$cli" client --socket "$sock" --text \
  '{"op": "query", "expr": "select[a < 5000](r)", "fraction": 1.0, "groups": 1}')"
echo "$out" | grep -q "estimated COUNT: 20005 " || fail "query overlay count, got: $out"

# a sampled query over a stream with deletes draws from a snapshot of a
# log with dead slots: the served query and sql must be byte-identical
# to the one-shot CLI over a CSV of the live rows in id order (the base
# rows minus the deleted ids, then the inserts)
deletes="$(seq 0 7 19999 | paste -sd, -)"
req_churn='{"op": "ingest", "relation": "r", "insert": [{"a": 7}, {"a": 299}, {"a": 300}], '
out="$("$cli" client --socket "$sock" "$req_churn\"delete\": [$deletes]}")"
echo "$out" | grep -q '"deleted": 2858' || fail "churn ingest deletes, got: $out"
{
  head -1 "$workdir/u.csv"
  tail -n +2 "$workdir/u.csv" | awk 'NR % 7 != 1'
  printf '5\n5\n5\n5\n5\n7\n299\n300\n'
} > "$workdir/live.csv"
"$cli" query "select[a < 300](r)" --rel "r=$workdir/live.csv" -f 0.05 -g 5 --seed 11 \
  > "$workdir/ref.cquery"
"$cli" sql "SELECT COUNT(*) FROM r WHERE a < 300" --rel "r=$workdir/live.csv" \
  -f 0.05 -g 5 --seed 11 > "$workdir/ref.csql"
"$cli" client --socket "$sock" --text \
  '{"op": "query", "expr": "select[a < 300](r)", "fraction": 0.05, "groups": 5, "seed": 11}' \
  > "$workdir/client.cquery"
"$cli" client --socket "$sock" --text \
  '{"op": "sql", "query": "SELECT COUNT(*) FROM r WHERE a < 300", "fraction": 0.05, "groups": 5, "seed": 11}' \
  > "$workdir/client.csql"
cmp -s "$workdir/client.cquery" "$workdir/ref.cquery" \
  || fail "served query over a stream with deletes differs from one-shot CLI"
cmp -s "$workdir/client.csql" "$workdir/ref.csql" \
  || fail "served sql over a stream with deletes differs from one-shot CLI"

# malformed requests are per-request errors, not daemon crashes ---------
out="$("$cli" client --socket "$sock" '{"op": ')"
echo "$out" | grep -q '"ok": false' || fail "malformed JSON not rejected"
echo "$out" | grep -q 'bad request JSON' || fail "malformed JSON error message"
out="$("$cli" client --socket "$sock" '{"op": "estimate", "relation": "ghost", "where": "a < 1"}')"
echo "$out" | grep -q 'unknown relation' || fail "unknown relation not surfaced"
# a server-side error under --text lands on the CLI error contract
if "$cli" client --socket "$sock" --text '{"op": "nope"}' 2> "$workdir/err.txt"; then
  fail "--text with a server error should exit nonzero"
else
  status=$?
  [ "$status" -eq 3 ] || fail "--text server error exit code $status, want 3"
fi
grep -q 'raestat: error: unknown op "nope"' "$workdir/err.txt" \
  || fail "--text error message"

# an oversized line (> 1 MiB without a newline) is answered and framed.
# The overshoot past the limit is kept small so the client's write fits
# in the socket buffer and it can still read the rejection afterwards.
{ printf '{"op": "ping", "pad": "'; head -c 1100000 /dev/zero | tr '\0' 'x'; printf '"}\n'; } \
  > "$workdir/huge.req"
out="$("$cli" client --socket "$sock" < "$workdir/huge.req")" || true
echo "$out" | grep -q 'request line exceeds' || fail "oversized request not rejected"

# the daemon survived all of the above
"$cli" client --socket "$sock" '{"op": "ping"}' | grep -q '"pong": true' \
  || fail "daemon did not survive the error barrage"

# admission control: a zero-capacity queue rejects without parsing ------
osock="$workdir/overload.sock"
"$cli" serve --rel "r=$workdir/u.csv" --socket "$osock" --queue-limit 0 \
  > "$workdir/overload.log" 2>&1 &
overload_pid=$!
await_ready "$workdir/overload.log"
"$cli" client --socket "$osock" '{"op": "ping"}' | grep -q '"error": "overloaded"' \
  || fail "queue-limit 0 did not reject"
kill -TERM "$overload_pid"
wait "$overload_pid" || true
overload_pid=""
grep -q "stopped after 0 requests (0 errors, 1 overloaded)" "$workdir/overload.log" \
  || fail "overload daemon summary line"

# a request that raises past the per-request error handlers (here a
# Stack_overflow: 60,000 nested parentheses parsed under a 20,000-word
# stack, a line well under the 1 MiB cap) is answered with a JSON error
# and counted, and the same connection answers its next request -------
dsock="$workdir/deep.sock"
OCAMLRUNPARAM=l=20000 "$cli" serve --rel "r=$workdir/u.csv" --socket "$dsock" \
  > "$workdir/deep.log" 2>&1 &
deep_pid=$!
await_ready "$workdir/deep.log"
python3 -c 'd = 60000; print("{\"op\": \"query\", \"expr\": \"" + "(" * d + "r" + ")" * d + "\", \"fraction\": 0.05}")' \
  > "$workdir/deep.req"
echo '{"op": "query", "expr": "select[a < 5000](r)", "fraction": 1.0, "groups": 1}' >> "$workdir/deep.req"
"$cli" client --socket "$dsock" < "$workdir/deep.req" > "$workdir/deep.out" || true
[ "$(wc -l < "$workdir/deep.out")" -eq 2 ] || fail "deep request: want 2 replies, got: $(cut -c1-200 "$workdir/deep.out")"
head -1 "$workdir/deep.out" | grep -q '"ok": false, "error": "Stack overflow"' \
  || fail "deep request not answered with an error: $(head -1 "$workdir/deep.out" | cut -c1-200)"
tail -1 "$workdir/deep.out" | grep -q "estimated COUNT: 20000 " \
  || fail "request after the deep one: $(tail -1 "$workdir/deep.out" | cut -c1-200)"
kill -TERM "$deep_pid"
wait "$deep_pid" || fail "deep daemon exited nonzero on SIGTERM"
deep_pid=""
grep -q "stopped after 2 requests (1 errors, 0 overloaded)" "$workdir/deep.log" \
  || fail "deep daemon summary line: $(tail -1 "$workdir/deep.log")"

# SIGTERM: clean stop, summary line, socket unlinked --------------------
kill -TERM "$server_pid"
wait "$server_pid" || fail "daemon exited nonzero on SIGTERM"
server_pid=""
grep -Eq "stopped after [0-9]+ requests \([0-9]+ errors, 0 overloaded\)" "$workdir/serve.log" \
  || fail "daemon summary line missing"
[ ! -e "$sock" ] || fail "socket file not unlinked on shutdown"

# worker-count invariance: the same concurrent barrage against 1, 2 and
# 4 worker domains must produce byte-identical responses and the same
# plan-cache totals (single-flight: each distinct shape compiles once
# no matter how many workers race on it) ---------------------------------
for w in 1 2 4; do
  wsock="$workdir/w$w.sock"
  "$cli" serve --rel "r=$workdir/u.csv" --rel "p=$workdir/u.raf" \
    --socket "$wsock" --plan-cache 16 --queue-limit 64 --workers "$w" \
    > "$workdir/w$w.log" 2>&1 &
  server_pid=$!
  await_ready "$workdir/w$w.log"
  declare -a wpids=() wouts=() wrefs=()
  for i in $(seq 0 7); do
    case $((i % 4)) in
      0) req="$req_est"   ; ref="$workdir/ref.est"   ;;
      1) req="$req_query" ; ref="$workdir/ref.query" ;;
      2) req="$req_sql"   ; ref="$workdir/ref.sql"   ;;
      3) req="$req_raf"   ; ref="$workdir/ref.raf"   ;;
    esac
    out="$workdir/w$w.client.$i.out"
    "$cli" client --socket "$wsock" --text "$req" > "$out" &
    wpids+=($!) wouts+=("$out") wrefs+=("$ref")
  done
  for i in $(seq 0 7); do
    wait "${wpids[$i]}" || fail "workers=$w client $i exited nonzero"
  done
  for i in $(seq 0 7); do
    cmp -s "${wouts[$i]}" "${wrefs[$i]}" \
      || fail "workers=$w client $i output differs from one-shot CLI"
  done
  wmetrics="$("$cli" client --socket "$wsock" '{"op": "metrics"}')"
  echo "$wmetrics" | grep -q "\"workers\": $w" || fail "metrics workers field ($w)"
  echo "$wmetrics" | grep -q '"misses": 3' \
    || fail "workers=$w: expected 3 plan compiles, got: $wmetrics"
  echo "$wmetrics" | grep -q '"hits": 5' \
    || fail "workers=$w: expected 5 plan-cache hits, got: $wmetrics"
  kill -TERM "$server_pid"
  wait "$server_pid" || fail "workers=$w daemon exited nonzero on SIGTERM"
  server_pid=""
done

# plan-cache evictions + --metrics-out + client connect retry ------------
# The client is started before the daemon is ready: its connect retry
# must absorb the startup race (no await_ready here on purpose).
esock="$workdir/evict.sock"
lifetime="$workdir/lifetime.json"
"$cli" serve --rel "r=$workdir/u.csv" --socket "$esock" --plan-cache 2 \
  --metrics-out "$lifetime" > "$workdir/evict.log" 2>&1 &
server_pid=$!
"$cli" client --socket "$esock" --text \
  '{"op": "estimate", "where": "a < 100", "fraction": 0.05}' > /dev/null \
  || fail "client retry did not absorb the daemon startup race"
"$cli" client --socket "$esock" --text \
  '{"op": "estimate", "where": "a < 200", "fraction": 0.05}' > /dev/null
"$cli" client --socket "$esock" --text \
  '{"op": "estimate", "where": "a < 300", "fraction": 0.05}' > /dev/null
emetrics="$("$cli" client --socket "$esock" '{"op": "metrics"}')"
echo "$emetrics" | grep -q '"evictions": 1' \
  || fail "expected 1 plan-cache eviction at capacity 2, got: $emetrics"
kill -TERM "$server_pid"
wait "$server_pid" || fail "eviction daemon exited nonzero on SIGTERM"
server_pid=""
[ -f "$lifetime" ] || fail "--metrics-out wrote no file"
grep -q '"schema": "raestat-metrics/1"' "$lifetime" || fail "metrics-out schema"
grep -q '"plan_cache_evictions": 1' "$lifetime" \
  || fail "metrics-out missing the eviction counter"
grep -q '"plan_cache_misses": 3' "$lifetime" || fail "metrics-out miss counter"

echo "serve conformance test OK"
