#!/usr/bin/env bash
# Bench regression gate (bench/compare.exe): one rule over small inline
# raestat-bench/2 reports.  Identical reports pass; a drifted pin, a
# missed floor, a ratio past its tolerance, a tail over its limit and a
# missing row each fail naming the row and the field; a missing
# baseline names the command that regenerates it.
set -euo pipefail

gate="$1"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

fail() { echo "GATE TEST FAILED: $1" >&2; exit 1; }

# report <file> <pages_read> <winner> <ratio> <speedup> <p50> <p95> [extra row]
report() {
  cat > "$1" <<EOF
{"schema": "raestat-bench/2", "bench": "demo", "command": "demo --quick --json", "cores": 2, "rows": [
{"name": "scan", "pinned": {"pages_read": $2, "qerr": 1.0293344655534706}, "checks": [], "timings": {"ns": {"k": 5, "median": 1000, "p95": 1200, "max": 1300}}},
{"name": "plan", "pinned": {"winner": "$3", "variance_ratio": $4}, "checks": [{"check": "at_least", "field": "variance_ratio", "bound": 1.5}], "timings": {}},
{"name": "kernel", "pinned": {}, "checks": [{"check": "at_least_base", "field": "speedup", "tolerance": 0.25}], "timings": {"speedup": {"k": 7, "median": $5, "p95": 3, "max": 3}}},
{"name": "mix", "pinned": {}, "checks": [{"check": "tail", "field": "latency_ns", "tolerance": 0.25, "grace": 200000}, {"check": "at_most", "field": "warm_ns", "bound": "cold_ns"}], "timings": {"latency_ns": {"k": 800, "median": $6, "p95": $7, "max": 9000000}, "cold_ns": {"k": 40, "median": 500000, "p95": 600000, "max": 700000}, "warm_ns": {"k": 40, "median": 80000, "p95": 90000, "max": 95000}}}${8:-}
]}
EOF
}

report "$workdir/base.json" 7 "pushdown(fact#0)" 236.9 2.0 2000000 4000000

# expect_fail <description> <pattern> <fresh args...>
expect_fail() {
  local description="$1" pattern="$2"
  shift 2
  report "$workdir/fresh.json" "$@"
  if "$gate" "$workdir/base.json" "$workdir/fresh.json" > "$workdir/out.txt" 2>&1; then
    fail "$description: the gate passed"
  fi
  grep -Eq "$pattern" "$workdir/out.txt" \
    || fail "$description (pattern: $pattern): $(cat "$workdir/out.txt")"
}

# identical reports pass, and so does a float pin within 1e-6 relative
report "$workdir/fresh.json" 7 "pushdown(fact#0)" 236.9000001 2.0 2000000 4000000
"$gate" "$workdir/base.json" "$workdir/base.json" > "$workdir/out.txt" \
  || fail "identical reports: $(cat "$workdir/out.txt")"
"$gate" "$workdir/base.json" "$workdir/fresh.json" > "$workdir/out.txt" \
  || fail "float pin within 1e-6: $(cat "$workdir/out.txt")"

expect_fail "pinned int off by one" "FAILED +scan .*pages_read 7 -> 8" \
  8 "pushdown(fact#0)" 236.9 2.0 2000000 4000000
expect_fail "pinned string changed" 'FAILED +plan .*winner "pushdown\(fact#0\)" -> "root-sampling"' \
  7 "root-sampling" 236.9 2.0 2000000 4000000
expect_fail "absolute floor missed" "FAILED +plan .*variance_ratio 1.2 not >= 1.5" \
  7 "pushdown(fact#0)" 1.2 2.0 2000000 4000000
# 2.0 / 1.25 = 1.6: 1.59 is past the 25% tolerance, 1.6 is not
expect_fail "relative ratio past its tolerance" "FAILED +kernel .*speedup 1.59 below 1.6" \
  7 "pushdown(fact#0)" 236.9 1.59 2000000 4000000
report "$workdir/fresh.json" 7 "pushdown(fact#0)" 236.9 1.6 2000000 4000000
"$gate" "$workdir/base.json" "$workdir/fresh.json" > "$workdir/out.txt" \
  || fail "ratio at the floor: $(cat "$workdir/out.txt")"
# at the same p50 the limit is 4,000,000 x 1.25 + 200,000 = 5,200,000 ns
expect_fail "serve tail over its limit" "FAILED +mix .*latency_ns p95 5300000 over 5200000" \
  7 "pushdown(fact#0)" 236.9 2.0 2000000 5300000
report "$workdir/fresh.json" 7 "pushdown(fact#0)" 236.9 2.0 1000000 2600000
"$gate" "$workdir/base.json" "$workdir/fresh.json" > "$workdir/out.txt" \
  || fail "tail scales with the p50 ratio: $(cat "$workdir/out.txt")"

# a baseline row missing from the fresh report fails; a new one is reported
report "$workdir/extra.json" 7 "pushdown(fact#0)" 236.9 2.0 2000000 4000000 \
  ',
{"name": "gone", "pinned": {"pages_read": 1}, "checks": [], "timings": {}}'
report "$workdir/fresh.json" 7 "pushdown(fact#0)" 236.9 2.0 2000000 4000000
if "$gate" "$workdir/extra.json" "$workdir/fresh.json" > "$workdir/out.txt" 2>&1; then
  fail "missing row: the gate passed"
fi
grep -Eq "FAILED +gone +MISSING in fresh report" "$workdir/out.txt" \
  || fail "missing row: $(cat "$workdir/out.txt")"
"$gate" "$workdir/fresh.json" "$workdir/extra.json" > "$workdir/out.txt" \
  || fail "new row: $(cat "$workdir/out.txt")"
grep -Eq "^new +gone" "$workdir/out.txt" || fail "new row not reported"

# a missing baseline prints one line naming the command that makes it
if "$gate" "$workdir/nope.json" "$workdir/fresh.json" > "$workdir/out.txt" 2>&1; then
  fail "missing baseline: the gate passed"
fi
grep -q "baseline $workdir/nope.json missing: regenerate with \`dune exec bench/main.exe -- demo --quick --json\` and commit it" \
  "$workdir/out.txt" || fail "missing baseline: $(cat "$workdir/out.txt")"

echo "gate tests passed"
