#!/usr/bin/env bash
# CLI smoke test for xchain-fuzz, wired into ctest (see CMakeLists.txt).
#
# Usage: xchain_fuzz_smoke.sh /path/to/xchain-fuzz /path/to/tests/fuzz_corpus /path/to/workdir
#
# Asserts that:
#   * --help exits 0 and names the corpus/replay/self-test flags; unknown
#     flags, malformed values (a negative, signed, space-padded or
#     overflowing --seed among them), an empty --corpus-out= or
#     --reproducers= directory (rejected before any run, so no report is
#     written), a --protocol named twice, --self-test with --replay (the
#     starter seeds alone never reach the planted bug), a short --json
#     write (/dev/full), a corpus seed planning for a party its
#     protocol does not have and a corpus seed whose overrides its
#     protocol's schema rejects (an out-of-range value or an unknown key;
#     each naming the file) exit 2;
#   * --self-test finds the planted two-entry bug within a bounded budget
#     and shrinks it to the pinned canonical reproducer (exit 0);
#   * the seeded regression corpus replays clean (exit 0) and the JSON
#     report parses (python3 when available, grep fallback) with 0
#     violating runs, and (python3 only) no skipped seed; two-party and
#     bridge-transfer,
#     whose faulted seeds share their default-parameter world, report one
#     instance each;
#   * two same-seed bounded runs emit byte-identical JSON bodies modulo
#     the build-stamp fields (the determinism contract CI relies on);
#   * a violating run (--self-test without the pass condition: a plain
#     fuzz of the trap via --self-test is the only in-tree violator)
#     writes reproducer files in corpus format.
set -euo pipefail

bin="$1"
corpus="$2"
work="$3"

fail() { echo "xchain_fuzz_smoke: FAIL: $*" >&2; exit 1; }

mkdir -p "$work"
rm -f "$work"/*.json "$work"/repro_* 2>/dev/null || true

# --help exits 0 and documents the contract; bad flags exit 2.
help_out="$("$bin" --help)" || fail "--help exited $? (want 0)"
for flag in --protocol= --seed= --budget-runs= --corpus= --replay \
            --self-test --json=; do
  grep -qF -- "$flag" <<<"$help_out" || fail "--help is missing '$flag'"
done
"$bin" --no-such-flag >/dev/null 2>&1 && fail "unknown flag should exit 2"
rc=0; "$bin" --no-such-flag >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || fail "unknown flag exited $rc (want 2)"
# A seed is plain digits: strtoull would wrap -1 to 2^64-1, and skip a
# leading space or '+'.
for seed in notanumber -1 ' 1' +1 18446744073709551616; do
  rc=0; "$bin" --seed="$seed" --protocol=two-party --budget-runs=10 --quiet \
    --json="$work/bad_seed.json" >/dev/null 2>&1 || rc=$?
  [[ "$rc" -eq 2 ]] || fail "--seed='$seed' exited $rc (want 2)"
done
[[ ! -e "$work/bad_seed.json" ]] || fail "a rejected --seed wrote JSON"
rc=0; "$bin" --protocol=two-party --protocol=two-party --budget-runs=10 \
  --quiet >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || fail "a --protocol named twice exited $rc (want 2)"
rc=0; "$bin" --self-test --replay --budget-runs=1000 >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || fail "--self-test --replay exited $rc (want 2)"
rc=0; "$bin" --budget-runs=0 >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || fail "--budget-runs=0 exited $rc (want 2)"
rc=0; "$bin" --corpus=/no/such/dir >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || fail "missing corpus dir exited $rc (want 2)"
rc=0; "$bin" --protocol=two-party --budget-runs=10 --quiet \
  --json=/dev/full >/dev/null 2>&1 || rc=$?
[[ "$rc" -eq 2 ]] || fail "short --json write exited $rc (want 2)"
# A plan for a party the seed's instance does not have would never run, and
# the seed would replay as the all-conforming run.
mkdir -p "$work/bad_party"
printf 'protocol two-party\nplan 7 x0\n' > "$work/bad_party/party7.fuzz"
rc=0; err="$("$bin" --replay --corpus="$work/bad_party" --protocol=two-party \
  --quiet 2>&1 >/dev/null)" || rc=$?
[[ "$rc" -eq 2 ]] || fail "a plan for party 7 of two-party exited $rc (want 2)"
grep -qF "party7.fuzz" <<<"$err" || fail "the party-7 rejection names no file: $err"
# A seed whose overrides the schema rejects is a corpus error, not a skip:
# n is bounded to [2, 10], and nn is no multi-party-ring key.
for bad in n=99 nn=3; do
  mkdir -p "$work/bad_param_$bad"
  printf 'protocol multi-party-ring\nset %s\n' "$bad" \
    > "$work/bad_param_$bad/seed.fuzz"
  rc=0; err="$("$bin" --replay --corpus="$work/bad_param_$bad" \
    --protocol=multi-party-ring --quiet 2>&1 >/dev/null)" || rc=$?
  [[ "$rc" -eq 2 ]] || fail "a corpus seed with 'set $bad' exited $rc (want 2)"
  grep -qF "seed.fuzz" <<<"$err" || fail "the 'set $bad' rejection names no file: $err"
done
# An empty output directory would silently persist nothing.
for flag in --corpus-out= --reproducers=; do
  rm -f "$work/empty_dir.json"
  rc=0; "$bin" --self-test --seed=1 --budget-runs=50 --quiet "$flag" \
    --json="$work/empty_dir.json" >/dev/null 2>&1 || rc=$?
  [[ "$rc" -eq 2 ]] || fail "empty $flag exited $rc (want 2)"
  [[ ! -e "$work/empty_dir.json" ]] || fail "empty $flag wrote JSON"
done

# The planted-bug self-test: found, shrunk to the pinned canonical form.
"$bin" --self-test --seed=1 --budget-runs=1000 --quiet \
  --reproducers="$work" || fail "--self-test exited $? (want 0)"
repro="$(ls "$work"/repro_fuzz_selftest_trap_*.fuzz 2>/dev/null | head -1)"
[[ -n "$repro" ]] || fail "--self-test wrote no reproducer file"
grep -q '^plan 1 x0$' "$repro" || fail "reproducer not canonical: $repro"
grep -q '^plan 2 halt@1$' "$repro" || fail "reproducer not canonical: $repro"
grep -q '^# violation: ' "$repro" || fail "reproducer lacks violation note"

# The seeded regression corpus must replay clean and the report parse.
json="$work/FUZZ_smoke.json"
"$bin" --replay --corpus="$corpus" --seed=1 --quiet --json="$json" || \
  fail "corpus replay exited $? (want 0)"
[[ -s "$json" ]] || fail "no JSON written to $json"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["benchmark"] == "fuzz", doc
assert doc["replay_only"] is True, doc
assert doc["violating_runs"] == 0, doc
assert doc["reproducers"] == 0, doc
assert doc["runs"] > 0, doc
names = {t["protocol"] for t in doc["targets"]}
assert {"two-party", "broker", "auction-open"} <= names, names
assert all(t["violating_runs"] == 0 for t in doc["targets"]), doc
assert all(t["skipped_inputs"] == 0 for t in doc["targets"]), doc
# Each of these replays a faulted seed beside its default-parameter ones;
# a fault environment runs on its override set's world, so one world each.
instances = {t["protocol"]: t["instances"] for t in doc["targets"]}
for name in ("two-party", "bridge-transfer"):
    assert instances[name] == 1, (name, instances[name])
EOF
else
  grep -q '"benchmark": "fuzz"' "$json" || fail "JSON lacks benchmark"
  # Anchor to the top-level aggregate (two-space indent, trailing comma) so
  # a clean per-target row cannot mask a violating sibling.
  grep -q '^  "violating_runs": 0,' "$json" || \
    fail "JSON lacks violating_runs: 0"
  grep -q '^  "replay_only": true,' "$json" || fail "JSON lacks replay_only"
fi

# Determinism: two same-seed bounded runs, byte-identical JSON bodies
# modulo the stamp fields (git commit / build type / compiler / threads).
a="$work/FUZZ_a.json"; b="$work/FUZZ_b.json"
"$bin" --protocol=two-party --seed=77 --budget-runs=200 --quiet \
  --json="$a" || fail "determinism run A exited $?"
"$bin" --protocol=two-party --seed=77 --budget-runs=200 --quiet \
  --json="$b" || fail "determinism run B exited $?"
strip() {
  grep -v -e '"git_commit"' -e '"build_type"' -e '"compiler"' \
          -e '"hardware_threads"' "$1"
}
diff <(strip "$a") <(strip "$b") >/dev/null || \
  fail "same-seed runs produced different JSON bodies"

echo "xchain_fuzz_smoke: OK"
