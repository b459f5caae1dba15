#!/usr/bin/env bash
# CLI smoke test for xchain-sweep, wired into ctest (see CMakeLists.txt).
#
# Usage: xchain_sweep_smoke.sh /path/to/xchain-sweep /path/to/out.json
#
# Asserts that:
#   * --list names every registered reference protocol and the strategy
#     spaces, and without a --protocol exits 2 without writing when asked
#     for a --json= report it has not;
#   * a small two-party grid campaign (premium_a=1,2) exits 0;
#   * the emitted JSON parses (python3 when available, grep fallback) and
#     reports 2 configurations with 0 violations;
#   * --dry-run prints per-configuration schedule counts without running
#     (halt-only two-party: 16; --strategies=late-delays enlarges it), and
#     exits 2 without writing when asked for a --json= report it has not;
#   * a bounded --strategies=late-delays sweep runs clean and stamps the
#     JSON with the strategy space;
#   * a --max-deviators=2 late-delays broker sweep writes the same JSON at
#     --threads=1 and --threads=4 apart from workers, nodes_executed and
#     dedup_hits, and the serial one runs on the tree (fewer executed runs
#     than schedules);
#   * so do both bridges' late-delays sweeps at the default budget, whose
#     serial runs explore one witness ordering per permutation and execute
#     under a quarter of their schedules;
#   * a fee-escalation base above its ceiling and a short artifact write
#     (/dev/full) exit 2.
set -euo pipefail

bin="$1"
json="$2"

fail() { echo "xchain_sweep_smoke: FAIL: $*" >&2; exit 1; }

# --list must name all reference protocols and the strategy spaces.
list_out="$("$bin" --list)"
for name in two-party multi-party-ring multi-party-fig3a auction-open \
            auction-sealed broker bootstrap crr-ladder; do
  grep -q "^  $name " <<<"$list_out" || fail "--list is missing '$name'"
done
for space in halt-only timely-delays late-delays; do
  grep -q "$space" <<<"$list_out" || fail "--list is missing '$space'"
done
rm -f "$json.list"
rc=0
"$bin" --list --json="$json.list" >/dev/null 2>&1 || rc=$?
[[ $rc -eq 2 ]] || fail "--list --json= exited $rc (want 2)"
[[ ! -e "$json.list" ]] || fail "--list --json= wrote $json.list"

# A tiny grid campaign must run clean and write JSON.
rm -f "$json"
"$bin" --protocol=two-party --grid premium_a=1,2 --threads=2 \
  --json="$json" || fail "campaign exited $? (want 0)"
[[ -s "$json" ]] || fail "no JSON written to $json"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["benchmark"] == "campaign", doc
assert doc["configurations"] == 2, doc
assert doc["violations"] == 0, doc
assert len(doc["configs"]) == 2, doc
assert all(c["violations"] == 0 for c in doc["configs"]), doc
assert {c["params"] for c in doc["configs"]} == \
    {"premium_a=1", "premium_a=2"}, doc
EOF
else
  grep -q '"benchmark": "campaign"' "$json" || fail "JSON lacks benchmark"
  grep -q '"configurations": 2' "$json" || fail "JSON lacks 2 configurations"
  # Anchor to the top-level aggregate (two-space indent, trailing comma):
  # an unanchored '"violations": 0' also matches any single clean entry in
  # the per-config "configs" array, passing even when other configs report
  # violations.
  grep -q '^  "violations": 0,' "$json" || fail "JSON lacks violations: 0"
fi

# --dry-run prints plan-space sizes without running: the halt-only
# two-party space is exactly 16 schedules, and late-delays enlarges it.
dry_out="$("$bin" --protocol=two-party --dry-run)" || \
  fail "--dry-run exited $? (want 0)"
grep -q "two-party: 16 schedules" <<<"$dry_out" || \
  fail "--dry-run halt-only count wrong: $dry_out"
late_dry_out="$("$bin" --protocol=two-party --strategies=late-delays \
  --max-schedules=5000 --dry-run)" || fail "late-delays --dry-run failed"
late_count="$(sed -n 's/^two-party: \([0-9]*\) schedules$/\1/p' \
  <<<"$late_dry_out")"
[[ -n "$late_count" && "$late_count" -gt 48 ]] || \
  fail "late-delays dry-run should enlarge the space: $late_dry_out"
rm -f "$json.dry"
rc=0
"$bin" --protocol=two-party --dry-run --json="$json.dry" >/dev/null 2>&1 || \
  rc=$?
[[ $rc -eq 2 ]] || fail "--dry-run --json= exited $rc (want 2)"
[[ ! -e "$json.dry" ]] || fail "--dry-run --json= wrote $json.dry"

# A bounded late-delays sweep must run clean and stamp the JSON.
rm -f "$json.late"
"$bin" --protocol=two-party --strategies=late-delays --max-schedules=2000 \
  --threads=2 --json="$json.late" >/dev/null || \
  fail "late-delays sweep exited $? (want 0)"
grep -q '"strategies": "late-delays"' "$json.late" || \
  fail "JSON lacks the strategies stamp"
grep -q '^  "violations": 0,' "$json.late" || \
  fail "late-delays sweep reported violations"
rm -f "$json.late"

# A filtered sweep: serially the tree explores its deviator-set
# sub-spaces, and over four workers the shards brute-replay. Only the
# worker count and the executor statistics may differ.
for t in 1 4; do
  rm -f "$json.k2.t$t"
  "$bin" --protocol=broker --strategies=late-delays --max-deviators=2 \
    --threads="$t" --json="$json.k2.t$t" >/dev/null || \
    fail "filtered sweep at --threads=$t exited $? (want 0)"
done
executor_free() {
  grep -v -E '^  "(workers|nodes_executed|dedup_hits)": ' "$1"
}
diff <(executor_free "$json.k2.t1") <(executor_free "$json.k2.t4") || \
  fail "filtered sweep JSON differs between --threads=1 and --threads=4"
top_level() { sed -n "s/^  \"$1\": \([0-9]*\),\$/\1/p" "$2"; }
nodes="$(top_level nodes_executed "$json.k2.t1")"
runs="$(top_level schedules_run "$json.k2.t1")"
[[ -n "$nodes" && -n "$runs" && "$nodes" -lt "$runs" ]] || \
  fail "serial filtered sweep executed $nodes of $runs schedules (want fewer)"
rm -f "$json.k2.t1" "$json.k2.t4"

# The bridges' witnesses are interchangeable: serially the tree explores
# one witness ordering per permutation and serves the others permuted,
# over four workers every schedule is brute-replayed. Only the worker
# count and the executor statistics may differ, and the serial run must
# execute under a quarter of its schedules.
for protocol in bridge-transfer bridge-account-create; do
  for t in 1 4; do
    rm -f "$json.$protocol.t$t"
    "$bin" --protocol="$protocol" --strategies=late-delays --threads="$t" \
      --json="$json.$protocol.t$t" >/dev/null || \
      fail "$protocol late-delays at --threads=$t exited $? (want 0)"
  done
  diff <(executor_free "$json.$protocol.t1") \
       <(executor_free "$json.$protocol.t4") || \
    fail "$protocol JSON differs between --threads=1 and --threads=4"
  nodes="$(top_level nodes_executed "$json.$protocol.t1")"
  runs="$(top_level schedules_run "$json.$protocol.t1")"
  [[ -n "$nodes" && -n "$runs" && $((4 * nodes)) -lt "$runs" ]] || \
    fail "$protocol executed $nodes of $runs schedules (want under a quarter)"
  rm -f "$json.$protocol.t1" "$json.$protocol.t4"
done

# Unknown protocols / params / strategy spaces must fail with usage
# errors, not violations.
"$bin" --protocol=no-such-protocol >/dev/null 2>&1 && \
  fail "unknown protocol should exit non-zero"
"$bin" --protocol=two-party --set no_such_param=1 >/dev/null 2>&1 && \
  fail "unknown param should exit non-zero"
"$bin" --protocol=two-party --strategies=bogus >/dev/null 2>&1 && \
  fail "unknown strategy space should exit non-zero"
# A fee-escalation base above its ceiling would never be paid.
rc=0
"$bin" --protocol=two-party --max-deviators=0 \
  --resilience=fee-escalate:5,1,2 >/dev/null 2>&1 || rc=$?
[[ $rc -eq 2 ]] || fail "--resilience=fee-escalate:5,1,2 exited $rc (want 2)"

# A short artifact write is a usage-class error (exit 2), never success.
rc=0
"$bin" --protocol=two-party --max-deviators=0 --json=/dev/full \
  >/dev/null 2>&1 || rc=$?
[[ $rc -eq 2 ]] || fail "short artifact write exited $rc (want 2)"

echo "xchain_sweep_smoke: OK"
