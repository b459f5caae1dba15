#!/usr/bin/env python3
"""Compare two shared-chain load artifacts and gate regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json
        [--max-regression 0.20] [--report-only]

Both artifacts must carry the load schema ("benchmark": "load", written
by tools/xchain_bench.cpp as BENCH_load.json); any other schema exits
non-zero. The comparison exits non-zero when `instances_per_second`
regresses by more than --max-regression (default 20%) relative to the
baseline, or when the candidate reports any *unattributed* hedging
violation (a correctness failure, not a perf question). Completion-latency
percentiles (ticks — deterministic, not wall time) are reported per
protocol and in aggregate for context. The report is a pure function of
its configuration, so when both artifacts share users, seed, mix, gap, cap
and max_fee, any difference in a deterministic field (instances,
txs_included, chains, ticks, latency_ticks, the per-protocol rows,
violations, fault_caused) is report drift: a behaviour change, and a hard
failure even under --report-only. `peak_live_instances` (instances holding
a bound world at once) is deterministic too but only printed: the
committed baseline predates it.

--report-only prints the same comparison but never fails on throughput;
the unattributed and drift checks above still fail. CI passes it on every
run: absolute throughput is too noisy to gate on across hosts (the
committed baseline was measured on a dedicated host; see
scripts/baselines/). A `hardware_threads` mismatch between baseline and
candidate is a hard FAILURE unless --report-only is passed: absolute
throughput only compares meaningfully between like-for-like hosts, and a
silent degrade here previously let every cross-host run self-disarm the
gate — the caller must now say explicitly that it only wants the report.

Per-protocol rows and the thread-scaling curve are reported for context
but never gated: they are noisy on shared runners.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")


def fmt_rate(rate):
    return f"{rate:,.0f}/s"


def fmt_latency(doc):
    lat = doc.get("latency_ticks", {})
    return (f"p50={lat.get('p50', '?')} p95={lat.get('p95', '?')}"
            f" p99={lat.get('p99', '?')} ticks")


# What a load report is a function of, and what it reports deterministically
# (everything but wall time, thread count and the build stamp) and gates on.
# peak_live_instances is deterministic as well, but printed only: the
# committed baseline predates it.
LOAD_CONFIG = ("users", "seed", "mix", "arrival_gap", "block_capacity",
               "max_fee")
LOAD_REPORT = ("instances", "txs_included", "chains", "ticks",
               "latency_ticks", "protocols", "violations", "fault_caused")


def compare_load(base, cand, args, failures):
    """The shared-chain load schema (BENCH_load.json): gate throughput, the
    zero-unattributed-violations invariant and report drift; report
    latency."""
    for doc, path in ((base, args.baseline), (cand, args.candidate)):
        if "instances_per_second" not in doc:
            sys.exit(f"bench_compare: {path} lacks instances_per_second")

    # Unattributed violations are a correctness failure regardless of
    # --report-only leniency about throughput.
    if cand.get("unattributed", 0) != 0:
        sys.exit(
            f"bench_compare: candidate reports {cand['unattributed']}"
            " UNATTRIBUTED hedging violations — the floors failed without"
            " congestion to blame; a correctness failure, not a perf question"
        )

    # Same configuration, different deterministic report: behaviour
    # changed, which no host or thread count explains.
    if all(k in base and k in cand and base[k] == cand[k]
           for k in LOAD_CONFIG):
        drift = [k for k in LOAD_REPORT if base.get(k) != cand.get(k)]
        if drift:
            sys.exit(
                "bench_compare: REPORT DRIFT under an identical load"
                " configuration — " + "; ".join(
                    f"{k}: {base.get(k)!r} -> {cand.get(k)!r}"
                    for k in drift)
                + " — a behaviour change, not a perf question"
            )

    # Per-protocol context (never gated): instances and tick latency.
    base_protocols = {p["name"]: p for p in base.get("protocols", [])}
    for p in cand.get("protocols", []):
        b = base_protocols.get(p["name"])
        tail = "(new protocol)" if b is None else f"[was {fmt_latency(b)}]"
        print(f"  {p['name']:<22} {p['instances']:>7} instances "
              f" {fmt_latency(p)}  {tail}")

    print(f"  {'aggregate latency':<22} {fmt_latency(base)} ->"
          f" {fmt_latency(cand)}")
    if "fault_caused" in cand:
        print(f"  {'violations':<22} {cand.get('violations', 0)}"
              f" ({cand.get('fault_caused', 0)} [chain-fault],"
              f" {cand.get('unattributed', 0)} unattributed)")
    if "peak_live_instances" in cand:
        print(f"  {'peak live instances':<22}"
              f" {base.get('peak_live_instances', '?')} ->"
              f" {cand['peak_live_instances']}")

    base_total = base["instances_per_second"]
    cand_total = cand["instances_per_second"]
    ratio = cand_total / max(base_total, 1e-9)
    print(
        f"  {'instances/s':<22} {fmt_rate(base_total):>14} ->"
        f" {fmt_rate(cand_total):>14}  ({ratio:5.2f}x)"
    )
    if "txs_per_second" in base and "txs_per_second" in cand:
        tx_ratio = cand["txs_per_second"] / max(base["txs_per_second"], 1e-9)
        print(
            f"  {'txs/s':<22} {fmt_rate(base['txs_per_second']):>14} ->"
            f" {fmt_rate(cand['txs_per_second']):>14}  ({tx_ratio:5.2f}x)"
        )

    # Thread-scaling curve, context only (noisy on shared runners).
    for point in cand.get("scaling", []):
        print(f"  {'scaling':<22} {point.get('threads', '?'):>3} threads "
              f" {fmt_rate(point.get('instances_per_second', 0)):>14}")

    floor = 1.0 - args.max_regression
    if ratio < floor:
        failures.append(
            f"instances_per_second fell to {ratio:.2f}x of baseline"
            f" (floor {floor:.2f}x)"
        )
    return ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum tolerated fractional drop in instances_per_second"
        " (default 0.20)",
    )
    ap.add_argument(
        "--report-only",
        action="store_true",
        help="print the comparison but never fail on throughput (noisy"
        " shared runners); unattributed violations and drift still fail",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    for doc, path in ((base, args.baseline), (cand, args.candidate)):
        if doc.get("benchmark") != "load":
            sys.exit(f"bench_compare: {path} has unknown benchmark"
                     f" schema {doc.get('benchmark')!r}")

    print(
        f"baseline : {args.baseline} "
        f"(commit {base.get('git_commit', 'unknown')[:12]}, "
        f"{base.get('build_type', 'unknown')}, "
        f"{base.get('compiler', 'unknown')}, "
        f"{base.get('hardware_threads', '?')} hw threads)"
    )
    print(
        f"candidate: {args.candidate} "
        f"(commit {cand.get('git_commit', 'unknown')[:12]}, "
        f"{cand.get('build_type', 'unknown')}, "
        f"{cand.get('compiler', 'unknown')}, "
        f"{cand.get('hardware_threads', '?')} hw threads)"
    )
    if base.get("build_type") != cand.get("build_type"):
        print(
            "bench_compare: WARNING: build_type differs — rates are not"
            " comparable",
            file=sys.stderr,
        )
    if base.get("hardware_threads") != cand.get("hardware_threads"):
        msg = (
            "bench_compare: hardware_threads differs"
            f" ({base.get('hardware_threads', '?')} vs"
            f" {cand.get('hardware_threads', '?')}) — different host class,"
            " rates are not comparable"
        )
        if not args.report_only:
            sys.exit(msg + " (pass --report-only to print the comparison"
                     " anyway)")
        print(msg + " [report-only]", file=sys.stderr)

    failures = []
    ratio = compare_load(base, cand, args, failures)

    floor = 1.0 - args.max_regression
    if failures:
        msg = "bench_compare: REGRESSION: " + "; ".join(failures)
        if args.report_only:
            print(msg + " [report-only: not failing]")
            return
        sys.exit(msg)
    print(f"bench_compare: OK ({ratio:.2f}x of baseline, floor {floor:.2f}x)")


if __name__ == "__main__":
    main()
