#!/usr/bin/env bash
# CLI smoke test for xchain-bench, wired into ctest (see CMakeLists.txt).
#
# Usage: xchain_bench_smoke.sh /path/to/xchain-bench /path/to/workdir
#
# Asserts that:
#   * --help prints the usage text;
#   * a small shared-chain load (200 users, default mix) exits 0 and
#     writes a BENCH_load JSON artifact with the expected shape (every
#     instance completed, latency percentiles present, 0 unattributed
#     violations, a positive peak_live_instances no larger than users);
#   * the --threads=1 and --threads=4 artifacts are identical modulo the
#     wall-time/stamp fields (the load loop's determinism contract);
#   * --scaling=1,4 exits 0: its re-runs match the primary report in every
#     deterministic field, each violation and its attribution included;
#   * equal INT_MAX mix weights draw both protocols (the draw range is
#     their 64-bit sum);
#   * scripts/bench_compare.py passes an artifact against its --threads=4
#     twin and hard-fails, even under --report-only, when a deterministic
#     field drifts;
#   * --seed= takes the whole unsigned 64-bit range: 2^64-1 runs, and
#     2^64, a sign or a leading space exit 2 without writing the artifact;
#   * malformed flags (an empty or comma-truncated --scaling= or --mix=
#     list, a signed or space-padded number), unknown mix protocols, a
#     mix protocol named twice, an empty --json= path and a short artifact
#     write (/dev/full) exit 2.
set -euo pipefail

bin="$1"
work="$2"

fail() { echo "xchain_bench_smoke: FAIL: $*" >&2; exit 1; }

mkdir -p "$work"

"$bin" --help | grep -q "usage: xchain-bench" || fail "--help lacks usage"

# Small load, deterministic seed, both thread counts.
rm -f "$work/t1.json" "$work/t4.json"
"$bin" --users=200 --threads=1 --seed=7 --json="$work/t1.json" --quiet \
  || fail "--threads=1 run exited $? (want 0)"
"$bin" --users=200 --threads=4 --seed=7 --json="$work/t4.json" --quiet \
  || fail "--threads=4 run exited $? (want 0)"
[[ -s "$work/t1.json" && -s "$work/t4.json" ]] || fail "missing JSON artifacts"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$work/t1.json" "$work/t4.json" <<'EOF'
import json, sys
WALL = {"threads", "wall_seconds", "instances_per_second", "txs_per_second",
        "latency_wall_seconds", "scaling", "git_commit", "build_type",
        "compiler", "hardware_threads"}
docs = []
for path in sys.argv[1:3]:
    with open(path) as f:
        doc = json.load(f)
    assert doc["benchmark"] == "load", doc["benchmark"]
    assert doc["instances"] == 200, doc["instances"]
    assert doc["unattributed"] == 0, doc["unattributed"]
    assert {"p50", "p95", "p99", "max", "mean"} <= \
        set(doc["latency_ticks"]), doc["latency_ticks"]
    assert sum(p["instances"] for p in doc["protocols"]) == 200, \
        doc["protocols"]
    assert 0 < doc["peak_live_instances"] <= 200, doc["peak_live_instances"]
    docs.append({k: v for k, v in doc.items() if k not in WALL})
assert docs[0] == docs[1], "threads=1 vs threads=4 reports differ"
EOF
else
  grep -q '"benchmark": "load"' "$work/t1.json" || fail "JSON lacks benchmark"
  grep -q '"instances": 200' "$work/t1.json" || fail "JSON lacks instances"
  grep -q '"unattributed": 0' "$work/t1.json" || fail "unattributed != 0"
  grep -q '"peak_live_instances": [1-9]' "$work/t1.json" \
    || fail "JSON lacks peak_live_instances"
  # Determinism: the tick-latency line must agree across thread counts.
  t1_lat="$(grep '"latency_ticks"' "$work/t1.json" | head -1)"
  t4_lat="$(grep '"latency_ticks"' "$work/t4.json" | head -1)"
  [[ "$t1_lat" == "$t4_lat" ]] || fail "latency differs across thread counts"
fi

# Equal INT_MAX weights: a 32-bit weight sum overflowed and drew only the
# first protocol.
"$bin" --users=50 --mix=two-party:2147483647,broker:2147483647 \
  --json="$work/max.json" --quiet || fail "INT_MAX-weight run exited $?"
for proto in two-party broker; do
  grep -q "\"name\": \"$proto\", \"instances\": [1-9]" "$work/max.json" \
    || fail "INT_MAX weights drew no $proto instance"
done

# --scaling re-runs the load per thread count and exits 1 unless every
# deterministic field matches the primary run. At this shape congestion
# leaves instances incomplete, so the violation lists it compares are not
# empty.
"$bin" --users=200 --seed=7 --scaling=1,4 --json="$work/scaling.json" \
  --quiet || fail "--scaling=1,4 run exited $? (want 0)"
grep -q '"scaling": \[' "$work/scaling.json" || fail "JSON lacks scaling curve"
grep -q '"violations": [1-9]' "$work/scaling.json" \
  || fail "--scaling run compared no violations"

# Report-drift gate: one config, one set of deterministic fields.
if command -v python3 >/dev/null 2>&1; then
  compare="$(dirname "$0")/bench_compare.py"
  python3 "$compare" "$work/t1.json" "$work/t4.json" --report-only \
    >/dev/null || fail "bench_compare rejected matching load reports"
  python3 - "$work/t1.json" "$work/drift.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
doc["ticks"] += 1
with open(sys.argv[2], "w") as f:
    json.dump(doc, f)
EOF
  set +e
  python3 "$compare" "$work/t1.json" "$work/drift.json" --report-only \
    >/dev/null 2>&1
  rc=$?
  set -e
  [[ $rc -eq 1 ]] || fail "bench_compare passed a drifted ticks field ($rc)"
fi

# The seed is a full unsigned 64-bit value, as LoadConfig::seed is.
rm -f "$work/seed.json"
"$bin" --users=2 --seed=18446744073709551615 --json="$work/seed.json" \
  --quiet || fail "--seed=2^64-1 exited $? (want 0)"
grep -q '"seed": 18446744073709551615,' "$work/seed.json" \
  || fail "JSON lacks the 2^64-1 seed"

# Usage errors exit 2, never 0/1.
set +e
for bad in 18446744073709551616 -1 +1 ' 1'; do
  rm -f "$work/bad.json"
  "$bin" --users=2 --seed="$bad" --json="$work/bad.json" >/dev/null 2>&1
  [[ $? -eq 2 ]] || fail "--seed='$bad' should exit 2"
  [[ ! -e "$work/bad.json" ]] || fail "--seed='$bad' wrote an artifact"
done
"$bin" --users=0 >/dev/null 2>&1; [[ $? -eq 2 ]] || fail "--users=0 should exit 2"
"$bin" --no-such-flag >/dev/null 2>&1; [[ $? -eq 2 ]] || fail "unknown flag should exit 2"
"$bin" --users=5 --mix=no-such-protocol:1 --json="$work/bad.json" \
  >/dev/null 2>&1; [[ $? -eq 2 ]] || fail "unknown mix protocol should exit 2"
"$bin" --users=5 --mix=two-party:0 >/dev/null 2>&1; [[ $? -eq 2 ]] || \
  fail "zero mix weight should exit 2"
"$bin" --users=20 --mix=two-party:1,two-party:1 >/dev/null 2>&1
[[ $? -eq 2 ]] || fail "a mix protocol named twice should exit 2"
# Every comma-separated item must parse: an empty list or a stray comma is
# malformed, not a shorter list.
for bad in --scaling= --scaling=1, --scaling=,1 --scaling=1,,4 \
           --scaling=+1 --mix=two-party:1, --threads=' 1'; do
  "$bin" --users=5 "$bad" --json="$work/bad.json" >/dev/null 2>&1
  [[ $? -eq 2 ]] || fail "$bad should exit 2"
done
# A lost artifact is an error, never a clean exit.
"$bin" --users=5 --json= >/dev/null 2>&1; [[ $? -eq 2 ]] || \
  fail "empty --json= path should exit 2"
"$bin" --users=5 --json=/dev/full >/dev/null 2>&1; [[ $? -eq 2 ]] || \
  fail "short artifact write should exit 2"
set -e

rm -f "$work/t1.json" "$work/t4.json" "$work/bad.json" "$work/max.json" \
  "$work/drift.json" "$work/scaling.json" "$work/seed.json"
echo "xchain_bench_smoke: OK"
