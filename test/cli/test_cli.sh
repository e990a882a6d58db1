#!/usr/bin/env bash
# End-to-end CLI test: exercises every raestat subcommand against a
# generated CSV and greps for the expected (seed-fixed) shapes.
set -euo pipefail

cli="$1"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() { echo "CLI TEST FAILED: $1" >&2; exit 1; }

expect() { # expect <description> <pattern> <<< output
  local description="$1" pattern="$2"
  grep -Eq "$pattern" || fail "$description (pattern: $pattern)"
}

# generate --------------------------------------------------------------
"$cli" generate -n 20000 --dist uniform:0:99 -o "$workdir/u.csv" \
  | expect "generate reports" "wrote 20000 tuples"
head -1 "$workdir/u.csv" | expect "csv header" "^a:int$"
[ "$(wc -l < "$workdir/u.csv")" -eq 20001 ] || fail "csv row count"

"$cli" generate -n 5000 -c b --dist zipf:50:1.0 -o "$workdir/z.csv" >/dev/null

# exact -----------------------------------------------------------------
"$cli" exact "$workdir/u.csv" --where "a < 30" | expect "exact count" "exact COUNT: 5[0-9]{3} |exact COUNT: 6[0-9]{3} "
# --where reads the predicate grammar of select[…]: <> is not-equal
awk 'BEGIN { print "a:int"; for (i = 0; i < 1000; i++) print i % 100 }' > "$workdir/k.csv"
"$cli" exact "$workdir/k.csv" --where "a <> 5" | expect "exact not-equal" "^exact COUNT: 990 "

# estimate --------------------------------------------------------------
out="$("$cli" estimate "$workdir/u.csv" --where "a < 30" -f 0.05)"
echo "$out" | expect "estimate line" "estimated COUNT: [0-9]+"
echo "$out" | expect "sample size line" "sampled 1000 of 20000"
echo "$out" | expect "ci line" "95% CI: \[[0-9]+, [0-9]+\]"

# an empty relation estimates to an exact 0 with a degenerate CI (it
# used to raise "sample size out of range" through the Sample_size clamp)
printf 'a:int\n' > "$workdir/empty.csv"
out="$("$cli" estimate "$workdir/empty.csv" --where "a < 30" -f 0.05)"
echo "$out" | expect "empty estimate" "estimated COUNT: 0"
echo "$out" | expect "empty census" "sampled 0 of 0 tuples \(100.00%\)"
echo "$out" | expect "empty degenerate ci" "95% CI: \[0, 0\]"

# a one-tuple sample carries no variance estimate: the estimate answers
# without a CI line (it used to fail in Estimate.ci), here at 1 of 2;
# a one-row census is exact, so its CI is the point, as the empty
# census's is
printf 'a:int\n100\n500\n' > "$workdir/two.csv"
out="$("$cli" estimate "$workdir/two.csv" --where "a < 300" -f 0.5)" \
  || fail "one-tuple estimate failed"
echo "$out" | expect "one-tuple estimate" "^estimated COUNT: [02]$"
echo "$out" | expect "one-tuple sample line" "^sampled 1 of 2 tuples \(50.00%\)$"
if echo "$out" | grep -q "CI"; then fail "one-tuple estimate prints a CI"; fi
printf 'a:int\n100\n' > "$workdir/one.csv"
"$cli" estimate "$workdir/one.csv" --where "a < 300" -f 1.0 > "$workdir/one.out" \
  || fail "one-row census estimate failed"
diff -u - "$workdir/one.out" <<'EOF' || fail "one-row census estimate drifted"
estimated COUNT: 1
sampled 1 of 1 tuples (100.00%)
95% CI: [1, 1]
EOF

# ingest (streaming with maintained samples) ----------------------------
# Convert the relation into a maintained stream, apply one batch, and
# answer --where from the maintained sample.  Seed-fixed: repeat runs
# are byte-identical.
printf 'a:int\n5\n5\n5\n5\n5\n' > "$workdir/ins.csv"
out="$("$cli" ingest "$workdir/u.csv" --inserts "$workdir/ins.csv" --delete "0-99,150" \
  --capacity 500 --where "a < 30")"
echo "$out" | expect "ingest summary" \
  "ingested 5, deleted 101 \(epoch 2, population 19904, sample [0-9]+/500\)"
echo "$out" | expect "ingest estimate" "estimated COUNT: [0-9]+"
echo "$out" | expect "ingest maintained line" \
  "sampled [0-9]+ of 19904 tuples .*, maintained at epoch 2"
"$cli" ingest "$workdir/u.csv" --inserts "$workdir/ins.csv" --delete "0-99,150" \
  --capacity 500 --where "a < 30" > "$workdir/ingest.2"
cmp -s <(echo "$out") "$workdir/ingest.2" || fail "ingest is not deterministic"

# erosion and --rescan: deleting most of the population erodes the
# sample below half capacity; --rescan rebuilds it from the live tuples
out="$("$cli" ingest "$workdir/u.csv" --capacity 100 --delete "0-19989" --rescan \
  --where "a < 30")"
echo "$out" | expect "rescan line" "rescan: rebuilt the backing sample from 10 live tuples"
echo "$out" | expect "rescan census" "sampled 10 of 10 tuples \(100.00%\)"

# --delete ranges are clamped to the ids the stream has issued (base
# rows, then inserts): a range reaching far past them, even to max_int,
# prints the same bytes as the clamped range, without building its ids
printf 'a:int\n1\n2\n3\n' > "$workdir/three.csv"
"$cli" ingest "$workdir/three.csv" --delete "0-2" --where "a < 3" > "$workdir/clamp.ref"
grep -q "ingested 0, deleted 3 (epoch 2, population 0" "$workdir/clamp.ref" \
  || fail "clamped delete range"
for spec in "0-4000000000" "0-4611686018427387903"; do
  "$cli" ingest "$workdir/three.csv" --delete "$spec" --where "a < 3" > "$workdir/clamp.out" \
    || fail "ingest --delete $spec exited non-zero"
  cmp -s "$workdir/clamp.ref" "$workdir/clamp.out" \
    || fail "ingest --delete $spec differs from --delete 0-2"
done

# --capacity bounds the backing sample without sizing it: the sample's
# arrays grow with the tuples it holds, so max_int serves a 2-row stream
printf 'a:int\n1\n2\n' > "$workdir/two.csv"
out="$("$cli" ingest "$workdir/two.csv" --capacity 4611686018427387903 --where "a < 3")" \
  || fail "ingest --capacity max_int exited non-zero"
echo "$out" | expect "ingest with a max_int capacity" \
  "population 2, sample 2/4611686018427387903\)"

# pack / pagefile storage ------------------------------------------------
# Packing is a change of storage, not of data: every command must give
# bit-identical output whether it reads the CSV or the packed .raf.
"$cli" pack "$workdir/u.csv" "$workdir/u.raf" \
  | expect "pack reports" "packed 20000 tuples into .*u.raf: 79 pages of up to 256 rows, [0-9]+ data bytes"

"$cli" exact "$workdir/u.csv" --where "a < 30" | sed 's/([0-9.]* ms)//' > "$workdir/exact.csv.out"
"$cli" exact "$workdir/u.raf" --where "a < 30" | sed 's/([0-9.]* ms)//' > "$workdir/exact.raf.out"
cmp -s "$workdir/exact.csv.out" "$workdir/exact.raf.out" \
  || fail "exact differs between csv and raf"

"$cli" estimate "$workdir/u.csv" --where "a < 30" -f 0.05 > "$workdir/est.csv.out"
"$cli" estimate "$workdir/u.raf" --where "a < 30" -f 0.05 > "$workdir/est.raf.out"
cmp -s "$workdir/est.csv.out" "$workdir/est.raf.out" \
  || fail "estimate differs between csv and raf"

# cluster sampling (--pages): the paged view is the same whether pages
# are simulated over the loaded CSV or read from the file, so the
# estimate is bit-identical; only the real-I/O counters differ.
"$cli" estimate "$workdir/u.csv" --where "a < 30" --pages 10 \
  --metrics 2> "$workdir/pages.csv.err" > "$workdir/pages.csv.out"
"$cli" estimate "$workdir/u.raf" --where "a < 30" --pages 10 \
  --metrics 2> "$workdir/pages.raf.err" > "$workdir/pages.raf.out"
cmp -s "$workdir/pages.csv.out" "$workdir/pages.raf.out" \
  || fail "cluster estimate differs between csv and raf"
expect "cluster sample line" "sampled 10 of 79 pages" < "$workdir/pages.raf.out"

# pages_read is *real* I/O: zero for the in-memory CSV path, exactly the
# sampled pages for the pagefile; a full scan reads every page.
expect "csv cluster does no IO" '"pages_read": 0, "bytes_read": 0, "io_batches": 0' \
  < "$workdir/pages.csv.err"
expect "raf cluster reads sampled pages only" '"pages_read": 10, "bytes_read": [1-9][0-9]*' \
  < "$workdir/pages.raf.err"
out="$("$cli" estimate "$workdir/u.raf" --where "a < 30" -f 0.05 --metrics 2>&1 >/dev/null)"
echo "$out" | expect "raf full scan reads all pages" '"pages_read": 79'
# 79 adjacent pages coalesce into ceil(79/64) = 2 reads (64-page batch cap)
echo "$out" | expect "raf full scan coalesces" '"io_batches": 2'

# out-of-core: under a memory cap full materialization is refused but
# page sampling still answers (only the sampled pages are fetched)
if RAESTAT_MEMORY_CAP=4096 "$cli" estimate "$workdir/u.raf" --where "a < 30" -f 0.05 \
  2> "$workdir/cap.err"; then
  fail "memory cap did not refuse full materialization"
fi
expect "cap refusal message" \
  "raestat: error: Pagefile: .* full materialization needs [0-9]+ bytes of page data but RAESTAT_MEMORY_CAP=4096; estimate with page sampling instead" \
  < "$workdir/cap.err"
out="$(RAESTAT_MEMORY_CAP=4096 "$cli" estimate "$workdir/u.raf" --where "a < 30" --pages 10)"
echo "$out" | expect "out-of-core estimate" "estimated COUNT: [0-9]+"
cmp -s <(echo "$out") "$workdir/pages.raf.out" \
  || fail "estimate under memory cap differs from uncapped"

# join ------------------------------------------------------------------
out="$("$cli" join "$workdir/u.csv" "$workdir/z.csv" --on a=b -f 0.2 --check)"
echo "$out" | expect "join estimate" "estimated join size: [0-9]+"
echo "$out" | expect "join exact" "exact join size:"

# query (algebra) --------------------------------------------------------
out="$("$cli" query "select[a < 30](r)" --rel "r=$workdir/u.csv" -f 0.05 --check)"
echo "$out" | expect "query algebra echoed" "select\[a < 30\]\(r\)"
echo "$out" | expect "query status" "unbiased"

# sql ---------------------------------------------------------------------
out="$("$cli" sql "SELECT COUNT(*) FROM r WHERE a < 30" --rel "r=$workdir/u.csv" -f 0.05 --check)"
echo "$out" | expect "sql lowers to algebra" "algebra: select"
echo "$out" | expect "sql estimates" "estimated COUNT: [0-9]+"

# distinct ----------------------------------------------------------------
out="$("$cli" distinct "$workdir/u.csv" -c a -f 0.1)"
echo "$out" | expect "distinct exact row" "exact +100"
echo "$out" | expect "distinct methods listed" "chao1"

# quantile ----------------------------------------------------------------
out="$("$cli" quantile "$workdir/u.csv" -c a -t 0.5 -f 0.05)"
echo "$out" | expect "quantile point" "estimated 50%-quantile"
echo "$out" | expect "quantile exact" "exact: [0-9]+"

# plan ----------------------------------------------------------------------
out="$("$cli" plan --rel "x=$workdir/u.csv" --rel "y=$workdir/z.csv" --on a=b -f 0.1)"
echo "$out" | expect "plan order" "chosen order: +x ⋈ y|chosen order: +y ⋈ x"

# sweep ----------------------------------------------------------------------
out="$("$cli" sweep "$workdir/u.csv" --where "a < 30" --reps 5)"
echo "$out" | expect "sweep header" "fraction +mean rel.err"
echo "$out" | expect "sweep rows" "0.200"

# fuzz ----------------------------------------------------------------------
out="$("$cli" fuzz --budget 40 --seed 1988 2>/dev/null)"
echo "$out" | expect "fuzz clean run" "fuzz: 40 cases, 0 failures \(seed 1988, replicates 24\)"

# a well-formed seed file naming a case the reference estimator passes
# replays as PASS and exits 0
cat > "$workdir/replay.txt" <<'EOF'
raestat-fuzz/1
seed 1988
case 0
replicates 24
oracle census
# comment lines and blank lines are ignored
EOF
out="$("$cli" fuzz --replay "$workdir/replay.txt")"
echo "$out" | expect "fuzz replay pass" "replay: PASS .* case 0 \(seed 1988\) no longer fails oracle census"

# explain -----------------------------------------------------------------
# The plan printer is deterministic (no sampling happens), so the whole
# tree is pinned verbatim: node kind, sample mode, population/sample
# size, scale factor and unbiasedness status per node.
"$cli" explain estimate "$workdir/u.csv" --where "a < 30" -f 0.05 > "$workdir/explain.out"
diff -u - "$workdir/explain.out" <<'EOF' || fail "explain estimate tree drifted"
estimation plan: selection (direct selection)
`- select[a < 30]  [derived]  scale=20  unbiased
   `- scan r  [srswor 1000/20000]  scale=20  unbiased
EOF

"$cli" explain join "$workdir/u.csv" "$workdir/z.csv" --on a=b -f 0.2 > "$workdir/explain.out"
diff -u - "$workdir/explain.out" <<'EOF' || fail "explain join tree drifted"
estimation plan: equijoin (scale-up (8 replicates))
`- equijoin[a=b]  [derived]  scale=1600  unbiased
   |- scan l as l#0  [srswor 500/20000]  scale=40  unbiased
   `- scan r as r#1  [srswor 125/5000]  scale=40  unbiased
EOF

"$cli" explain query "r join[a = b] s" --rel "r=$workdir/u.csv" --rel "s=$workdir/z.csv" \
  -f 0.05 -g 4 > "$workdir/explain.out"
diff -u - "$workdir/explain.out" <<'EOF' || fail "explain query tree drifted"
estimation plan: scale-up (scale-up (4 replicates))
`- equijoin[a=b]  [derived]  scale=400  unbiased
   |- scan r as r#0  [srswor 1000/20000]  scale=20  unbiased
   `- scan s as s#1  [srswor 250/5000]  scale=20  unbiased
EOF

out="$("$cli" explain sql "SELECT COUNT(*) FROM r WHERE a < 30" --rel "r=$workdir/u.csv" \
  -f 0.05 --json)"
echo "$out" | expect "explain json schema" '"schema": "raestat-explain/1"'
echo "$out" | expect "explain json scan" '"op": "scan r as r#0", "mode": "srswor 1000/20000", "population": 20000, "sample_size": 1000'
echo "$out" | expect "explain json status" '"scale": 20, "status": "unbiased"'

# explain --optimize ------------------------------------------------------
# The optimizing planner is RNG-free, so the whole decision is pinned
# verbatim: every candidate with its predicted variance/cost/score, the
# winner's rewrite trace, and the rationale.  A foreign-key join (unique
# dimension keys, selective fact side) is the pushdown-wins case: root
# sampling pays the cross-term, pushing the sample to the fact side and
# keeping the dimension census wins on variance x cost.
"$cli" generate -n 40000 --dist uniform:0:3999 -o "$workdir/fact.csv" >/dev/null
{ printf 'b:int\n'; seq 0 1999; } > "$workdir/dim.csv"
env -u RAESTAT_NO_OPTIMIZE "$cli" explain query "fact join[a=b] dim" \
  --rel "fact=$workdir/fact.csv" --rel "dim=$workdir/dim.csv" -f 0.01 \
  --optimize > "$workdir/explain.out"
diff -u - "$workdir/explain.out" <<'EOF' || fail "optimized explain (pushdown wins) drifted"
estimation plan: pushdown(fact#0) (scale-up (5 replicates))
`- equijoin[a=b]  [derived]  scale=95.2381  unbiased
   |- scan fact as fact#0  [srswor 420/40000]  scale=95.2381  unbiased
   `- scan dim as dim#1  [srswor 2000/2000]  scale=1  unbiased
candidates (optimizer v1, analytic stats, budget 420 per group):
    root-sampling  variance=4.41646e+07  cost=2110.04  score=9.31891e+10
  * pushdown(fact#0)  variance=378573  cost=13154.5  score=4.97995e+09
    pushdown(dim#1)  variance=166979  cost=223190  score=3.72681e+10
pushdown trace:
    sample-below-join-left @ equijoin[a=b]: +(SS-J)(1/q-1)
winner: pushdown(fact#0) wins: score 4.97995e+09 (predicted variance 378573 x cost 13154.5) vs 3.72681e+10 for pushdown(dim#1) at equal sampled-tuple budget 420 per group
EOF

# A single-leaf selection is the tie case: the one pushdown candidate
# is the identical design, and the tie-break keeps the historical
# root-sampling strategy.
env -u RAESTAT_NO_OPTIMIZE "$cli" explain query "select[a < 30](r)" \
  --rel "r=$workdir/u.csv" -f 0.05 --optimize > "$workdir/explain.out"
diff -u - "$workdir/explain.out" <<'EOF' || fail "optimized explain (root wins tie) drifted"
estimation plan: root-sampling (scale-up (5 replicates))
`- select[a < 30]  [derived]  scale=20  unbiased
   `- scan r as r#0  [srswor 1000/20000]  scale=20  unbiased
candidates (optimizer v1, analytic stats, budget 1000 per group):
  * root-sampling  variance=22678.4  cost=6492  score=1.47228e+08
    pushdown(r#0)  variance=22678.4  cost=6492  score=1.47228e+08
winner: root-sampling wins the tie at score 1.47228e+08 (variance 22678.4, cost 6492): equal-score candidates fall back to the historical strategy
EOF

# String join keys with a selection on each side: the planner counts
# the dictionary codes of the passing rows (the case above has int keys
# and no selection).  The block is the first planner's output, so the
# statistics pinned here did not move when their computation did.
{ printf 'fk:string,v:int\n'; seq 0 29999 | awk '{printf "s%d,%d\n", ($1*7919)%3000, $1%100}'; } \
  > "$workdir/sfact.csv"
{ printf 'dk:string,region:int\n'; seq 0 1999 | awk '{printf "s%d,%d\n", $1, $1%5}'; } \
  > "$workdir/sdim.csv"
env -u RAESTAT_NO_OPTIMIZE "$cli" explain query \
  "select[v < 40](f) join[fk = dk] select[region <= 2](d)" \
  --rel "f=$workdir/sfact.csv" --rel "d=$workdir/sdim.csv" -f 0.01 \
  --optimize > "$workdir/explain.out"
diff -u - "$workdir/explain.out" <<'EOF' || fail "optimized explain (string keys, selections) drifted"
estimation plan: pushdown(f#0) (scale-up (5 replicates))
`- equijoin[fk=dk]  [derived]  scale=93.75  unbiased
   |- select[v < 40]  [derived]  scale=93.75  unbiased
   |  `- scan f as f#0  [srswor 320/30000]  scale=93.75  unbiased
   `- select[region <= 2]  [derived]  scale=1  unbiased
      `- scan d as d#1  [srswor 2000/2000]  scale=1  unbiased
candidates (optimizer v1, analytic stats, budget 320 per group):
    root-sampling  variance=1.04544e+07  cost=1602.4  score=1.67521e+10
  * pushdown(f#0)  variance=89040  cost=11856  score=1.05566e+09
    pushdown(d#1)  variance=50400  cost=155440  score=7.83418e+09
pushdown trace:
    sample-below-join-left @ equijoin[fk=dk]: +(SS-J)(1/q-1)
    sample-commutes-select @ select[v < 40]: unchanged
winner: pushdown(f#0) wins: score 1.05566e+09 (predicted variance 89040 x cost 11856) vs 7.83418e+09 for pushdown(d#1) at equal sampled-tuple budget 320 per group
EOF

# The kill switch disarms --optimize entirely: output must be
# byte-identical to a plain (non-optimized) explain.
RAESTAT_NO_OPTIMIZE=1 "$cli" explain query "fact join[a=b] dim" \
  --rel "fact=$workdir/fact.csv" --rel "dim=$workdir/dim.csv" -f 0.01 \
  --optimize > "$workdir/explain.killed.out"
"$cli" explain query "fact join[a=b] dim" --rel "fact=$workdir/fact.csv" \
  --rel "dim=$workdir/dim.csv" -f 0.01 > "$workdir/explain.plain.out"
cmp -s "$workdir/explain.killed.out" "$workdir/explain.plain.out" \
  || fail "RAESTAT_NO_OPTIMIZE=1 explain differs from the non-optimized tree"

out="$(env -u RAESTAT_NO_OPTIMIZE "$cli" explain query "fact join[a=b] dim" \
  --rel "fact=$workdir/fact.csv" --rel "dim=$workdir/dim.csv" -f 0.01 \
  --optimize --json)"
echo "$out" | expect "optimized explain json schema" '"schema": "raestat-explain/2"'
echo "$out" | expect "optimized explain json strategy" '"strategy": "pushdown\(fact#0\)"'
echo "$out" | expect "optimized explain json embedded plan" '"schema": "raestat-explain/1"'

# metrics -----------------------------------------------------------------
out="$("$cli" estimate "$workdir/u.csv" --where "a < 30" -f 0.05 --metrics 2>&1 >/dev/null)"
echo "$out" | expect "metrics schema" '"raestat-metrics/1"'
echo "$out" | expect "metrics counters" '"tuples_scanned": 1000'
echo "$out" | expect "metrics draws" '"rng_draws": [0-9]+'

"$cli" query "select[a < 30](r)" --rel "r=$workdir/u.csv" -f 0.05 -g 4 \
  --metrics-out "$workdir/m.json" >/dev/null 2>&1
grep -Eq '"sample_indices": [1-9][0-9]*' "$workdir/m.json" || fail "metrics-out file"

out="$("$cli" query "select[a < 30](r)" --rel "r=$workdir/u.csv" -f 0.05 -g 4 --trace 2>&1 >/dev/null)"
echo "$out" | expect "trace spans" '"spans"'
echo "$out" | expect "trace names the expression" '"estimate select'

# the counters line must be bit-identical whatever the domain count
for d in 1 4; do
  "$cli" query "select[a < 30](r)" --rel "r=$workdir/u.csv" -f 0.05 -g 8 --domains "$d" \
    --metrics 2>&1 >/dev/null | grep '"tuples_scanned"' > "$workdir/counters.$d"
done
cmp -s "$workdir/counters.1" "$workdir/counters.4" \
  || fail "metrics counters differ between --domains 1 and 4"

# error handling ---------------------------------------------------------
if "$cli" estimate "$workdir/u.csv" --where "nonsense" -f 0.05 2>/dev/null; then
  fail "malformed filter accepted"
fi

# domain errors: one-line message on stderr, exit code 3, no backtrace
expect_error() { # expect_error <description> <pattern> ... <cli args>
  local description="$1" pattern="$2"
  shift 2
  local output status=0
  output="$("$cli" "$@" 2>&1 >/dev/null)" && status=0 || status=$?
  [ "$status" -eq 3 ] || fail "$description: exit $status, wanted 3"
  echo "$output" | expect "$description message" "^raestat: error: $pattern"
  echo "$output" | expect_absent "$description backtrace" "Raised at|Called from"
}

expect_absent() { # expect_absent <description> <pattern> <<< output
  local description="$1" pattern="$2"
  if grep -Eq "$pattern"; then fail "$description (unwanted pattern: $pattern)"; fi
}

expect_error "unknown relation" 'Catalog.find: unknown relation "nosuch"' \
  query "select[a < 30](nosuch)" --rel "r=$workdir/u.csv" -f 0.05
expect_error "groups above the maximum" 'groups 1125899906842624 above the maximum 10000$' \
  query "select[a < 3](r)" --rel "r=$workdir/u.csv" -f 0.5 --groups 1125899906842624

# an unknown join attribute is a schema error on one line, however the
# join's leaves look (two bare base relations used to escape as an
# uncaught Not_found)
expect_error "unknown join attribute" 'Expr.schema_of: join attribute "zz" missing on the left$' \
  query "r join[zz = a] r" --rel "r=$workdir/u.csv" -f 0.05
[ "$("$cli" query "r join[zz = a] r" --rel "r=$workdir/u.csv" -f 0.05 2>&1 | wc -l)" -eq 1 ] \
  || fail "unknown join attribute: error is not one line"

# an estimate's filter is checked against the relation's schema before
# anything runs, on a static relation and on a maintained stream (both
# used to escape as an uncaught Not_found)
expect_error "unknown filter attribute" 'Expr.schema_of: unknown attribute "zz" in selection$' \
  estimate "$workdir/u.csv" --where "zz <= 3" -f 0.05
[ "$("$cli" estimate "$workdir/u.csv" --where "zz <= 3" -f 0.05 2>&1 | wc -l)" -eq 1 ] \
  || fail "unknown filter attribute: error is not one line"
expect_error "unknown ingest filter attribute" \
  'Expr.schema_of: unknown attribute "zz" in selection$' \
  ingest "$workdir/u.csv" --where "zz <= 3"

# the optimizer and the explain paths check the expression first: an
# unknown attribute is the one-line schema error there too (the planner
# used to die with an uncaught Not_found, and explain printed a plan)
printf 'x:int,k:int\n1,2\n3,4\n' > "$workdir/t.csv"
for args in "query --optimize" "explain query --optimize" "explain query"; do
  expect_error "unknown attribute ($args)" 'Expr.schema_of: unknown attribute "zz" in selection$' \
    $args "select[zz <= 3](t)" --rel "t=$workdir/t.csv"
done
for args in "sql --optimize" "explain sql"; do
  expect_error "unknown attribute ($args)" 'Expr.schema_of: unknown attribute "zz" in selection$' \
    $args "SELECT COUNT(*) FROM t WHERE zz <= 3" --rel "t=$workdir/t.csv"
done
expect_error "unknown attribute (explain estimate)" \
  'Expr.schema_of: unknown attribute "zz" in selection$' \
  explain estimate --where "zz <= 3" "$workdir/t.csv"

printf 'a:int\n1\n2,3\n' > "$workdir/bad.csv"
expect_error "malformed csv" "Csv: line 3: row has 2 fields, header has 1" \
  estimate "$workdir/bad.csv" --where "a < 30" -f 0.5

printf 'a:int\n1\noops\n' > "$workdir/badval.csv"
expect_error "csv bad value" 'Csv: line 3, field 1 \(a\)' \
  estimate "$workdir/badval.csv" --where "a < 30" -f 0.5

# SQL and relational-parser errors both carry offset/line positions in
# the same format; pin both exact messages so neither can drift.
expect_error "bad sql" \
  'Sql: query must start with SELECT at offset 0 \(line 1\) in "FROB COUNT\(\*\) FROM r"' \
  sql "FROB COUNT(*) FROM r" --rel "r=$workdir/u.csv"
expect_error "bad sql position" \
  'Sql: ORDER BY is not supported at offset 23 \(line 1\) in "SELECT COUNT\(\*\) FROM r ORDER BY a"' \
  sql "SELECT COUNT(*) FROM r ORDER BY a" --rel "r=$workdir/u.csv"
expect_error "bad sql where position" \
  'Sql: expected a term at offset 32 \(line 1\) in "SELECT COUNT\(\*\) FROM r WHERE a <"' \
  sql "SELECT COUNT(*) FROM r WHERE a <" --rel "r=$workdir/u.csv"
expect_error "bad algebra position" \
  'Parser: unexpected character .!. at offset 7 \(line 1\) in "select\[!\]\(r\)"' \
  query "select[!](r)" --rel "r=$workdir/u.csv" -f 0.05
expect_error "integer literal out of range" \
  'Parser: integer literal 99999999999999999999 out of range at offset 11 \(line 1\) in "select\[a < 99999999999999999999\]\(r\)"' \
  query "select[a < 99999999999999999999](r)" --rel "r=$workdir/k.csv" -f 1

expect_error "missing file" ".*missing.csv: No such file or directory" \
  query "select[a < 30](r)" --rel "r=$workdir/missing.csv"

# corrupt pagefiles die with the same one-line contract: bad magic,
# unsupported version, truncation anywhere
cp "$workdir/u.raf" "$workdir/badmagic.raf"
printf 'X' | dd of="$workdir/badmagic.raf" bs=1 count=1 conv=notrunc 2>/dev/null
expect_error "pagefile bad magic" \
  "Pagefile: .*badmagic.raf: bad magic \(not a raestat pagefile\)" \
  estimate "$workdir/badmagic.raf" --where "a < 30" --pages 5
cp "$workdir/u.raf" "$workdir/badver.raf"
printf '\011' | dd of="$workdir/badver.raf" bs=1 seek=4 count=1 conv=notrunc 2>/dev/null
expect_error "pagefile version mismatch" \
  "Pagefile: .*badver.raf: unsupported format version 9 \(expected 1\)" \
  estimate "$workdir/badver.raf" --where "a < 30" --pages 5
head -c 40 "$workdir/u.raf" > "$workdir/trunc.raf"
expect_error "pagefile truncated" "Pagefile: .*trunc.raf: truncated" \
  exact "$workdir/trunc.raf" --where "a < 30"
head -c "$(( $(wc -c < "$workdir/u.raf") - 5 ))" "$workdir/u.raf" > "$workdir/clipped.raf"
expect_error "pagefile clipped trailer" \
  "Pagefile: .*clipped.raf: truncated or corrupt \(bad trailer\)" \
  estimate "$workdir/clipped.raf" --where "a < 30" -f 0.05
expect_error "pack needs positive capacity" '--page-capacity must be positive' \
  pack "$workdir/u.csv" "$workdir/never.raf" --page-capacity 0
expect_error "pages must be in range" '.*' \
  estimate "$workdir/u.raf" --where "a < 30" --pages 100000

# option range validation: out-of-range and NaN values for --fraction,
# --level and --tau must die with the one-line contract, not leak into
# the samplers (NaN passes every < / > check downstream).
expect_error "fraction above one" '--fraction 1.5 outside \(0, 1\]' \
  estimate "$workdir/u.csv" --where "a < 30" -f 1.5
expect_error "fraction zero" '--fraction 0 outside \(0, 1\]' \
  join "$workdir/u.csv" "$workdir/z.csv" --on a=b -f 0
expect_error "fraction nan" '--fraction nan outside \(0, 1\]' \
  estimate "$workdir/u.csv" --where "a < 30" -f nan
expect_error "level nan" '--level nan outside \(0, 1\)' \
  estimate "$workdir/u.csv" --where "a < 30" --level nan
expect_error "level above one" '--level 1.5 outside \(0, 1\)' \
  quantile "$workdir/u.csv" -c a --level 1.5
# a level inside (0, 1) whose (1 + level) / 2 rounds to 1 has no normal
# quantile: refused naming --level, not with a Distributions error
expect_error "level too close to one" '--level 0.99999999999999989 too close to 1' \
  estimate "$workdir/u.csv" --where "a < 30" -f 0.1 --level 0.9999999999999999
expect_error "tau out of range" '--tau 1.2 outside \(0, 1\)' \
  quantile "$workdir/u.csv" -c a -t 1.2
expect_error "query fraction nan" '--fraction nan outside \(0, 1\]' \
  query "select[a < 30](r)" --rel "r=$workdir/u.csv" -f nan
expect_error "sql fraction zero" '--fraction 0 outside \(0, 1\]' \
  sql "SELECT COUNT(*) FROM r" --rel "r=$workdir/u.csv" -f 0
expect_error "explain fraction nan" '--fraction nan outside \(0, 1\]' \
  explain estimate "$workdir/u.csv" --where "a < 30" -f nan

# fuzz argument validation: a single replicate would feed df = 0 to the
# Student-t quantile, which satellite 3 made a hard error — the CLI must
# refuse it up front with the one-line contract.
expect_error "fuzz replicates too low" \
  '--replicates must be at least 2: the unbiasedness oracle feeds df = replicates - 1 to the Student-t quantile, and df = 0 has no quantile' \
  fuzz --budget 5 --replicates 1
expect_error "fuzz budget zero" '--budget must be positive' \
  fuzz --budget 0
printf 'bogus/9\nseed 1\n' > "$workdir/badreplay.txt"
expect_error "fuzz corrupt seed file" ".*badreplay.txt: not a raestat-fuzz/1 seed file" \
  fuzz --replay "$workdir/badreplay.txt"

# --dist validation: a malformed field inside a distribution spec is a
# one-line cmdliner converter error (exit 124), never an uncaught
# Failure("int_of_string") with a backtrace.
expect_dist_error() { # expect_dist_error <description> <pattern> <spec>
  local description="$1" pattern="$2" spec="$3"
  local output status=0
  output="$("$cli" generate -n 10 --dist "$spec" -o "$workdir/never.csv" 2>&1 >/dev/null)" \
    && status=0 || status=$?
  [ "$status" -eq 124 ] || fail "$description: exit $status, wanted 124"
  echo "$output" | expect "$description message" "$pattern"
  echo "$output" | expect_absent "$description backtrace" "Raised at|Called from"
  [ ! -e "$workdir/never.csv" ] || fail "$description wrote output"
}
expect_dist_error "dist bad int bound" 'uniform bound "lots" is not an integer' \
  "uniform:0:lots"
expect_dist_error "dist bad float skew" 'zipf skew "fast" is not a number' \
  "zipf:50:fast"
# (cmdliner rewraps the full alternatives list, so match its head)
expect_dist_error "dist unknown shape" 'expected uniform:LO:HI \| zipf:N:Z' \
  "poisson:3"

# a --where literal beyond the int range is the parser's positioned
# error too, through the same one-line converter contract (exit 124)
status=0
output="$("$cli" exact "$workdir/k.csv" --where "a < 99999999999999999999" 2>&1 >/dev/null)" \
  || status=$?
[ "$status" -eq 124 ] || fail "where literal out of range: exit $status, wanted 124"
# (cmdliner wraps the message, so match both halves)
echo "$output" | expect "where literal out of range message" \
  "Parser: integer literal 99999999999999999999 out"
echo "$output" | expect "where literal out of range position" "at offset 4 \(line 1\)"

# a pack that fails mid-stream is atomic: no partial .raf (which a later
# open would happily read) and no leftover staging file
printf 'a:int\n1\nnot-a-number\n' > "$workdir/bad.csv"
expect_error "pack malformed csv" 'Csv: line 3' \
  pack "$workdir/bad.csv" "$workdir/bad.raf"
[ ! -e "$workdir/bad.raf" ] || fail "failed pack left a partial .raf"
[ ! -e "$workdir/bad.raf.tmp" ] || fail "failed pack left a staging file"

echo "CLI TESTS PASSED"
