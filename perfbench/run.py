#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The script configures perfbench/ (which
compiles the library from src/) as a Release build in $CARGO_TARGET_DIR
(default .bench_build), runs the perfbench binary, checks that it reported
exactly the metrics BENCHMARK.json declares, and prints two lines: a
provenance stamp, then the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
setup_s is the median over several fresh processes. The exit status is 0
when every correctness gate held, 1 when one failed or the build failed,
2 on bad usage. --self-test runs every workload at tiny sizes in both
modes and checks every declared metric appears with its unit.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 9  # processes whose set-up time feeds the setup_s median
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the Release benchmark binary."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, parsed last line)."""
    cmd = [binary, "--corpus", os.path.join(ROOT, "tests", "fuzz_corpus"),
           "--out", os.path.join(build_dir(), "out")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args), RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("perfbench %s exited %d" % (" ".join(args), proc.returncode))
    return proc.returncode, json.loads(lines[-1])


def declared(spec, trace):
    """{metric name: unit} the run must report."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(result, want):
    """Names of declared metrics missing, extra, or with the wrong unit."""
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = ["missing " + n for n in sorted(set(want) - set(got))]
    problems += ["undeclared " + n for n in sorted(set(got) - set(want))]
    problems += ["unit of %s is %s, want %s" % (n, got[n], want[n])
                 for n in sorted(set(got) & set(want)) if got[n] != want[n]]
    return problems


def stamp(result):
    """Git commit (when the checkout is a repository) plus a digest of
    src/, so a result is attributable in a plain source tree too."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    text=True, env=env, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    s = dict(result.get("stamp", {}))
    s["git_commit"] = commit
    s["source_sha256"] = digest.hexdigest()
    return s


def measure(spec, binary, args):
    workload_args = ["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
    def sample_setups(n):
        if args.trace:
            return []
        return [run_binary(binary, workload_args + ["--setup-only"])[1]
                ["metrics"]["setup_s"]["value"] for _ in range(n)]

    # Set-up samples come from both sides of the timed run, so the median
    # does not hang on the host's state at one moment.
    setups = sample_setups(SETUP_SAMPLES // 2)
    rc, result = run_binary(binary, workload_args)
    setups += sample_setups(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    if rc == 0 and not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    problems = check_metrics(result, declared(spec, args.trace)) if rc == 0 else []
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    correct = rc == 0 and result["correct"] and not problems
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "stamp": stamp(result),
                      "errors": result.get("errors", []) + problems,
                      "trace_file": result.get("trace_file")}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


def self_test(spec, binary):
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, result = run_binary(binary, [
                "--workload", w["name"], "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"])
            found = ([] if rc == 0 and result["correct"]
                     else ["gates failed: %s" % result.get("errors")])
            found += check_metrics(result, declared(spec, trace))
            problems += ["%s trace=%d: %s" % (w["name"], trace, p) for p in found]
            print("%-20s trace=%d %s" % (w["name"], trace, "ok" if not found else "FAILED"))
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in names:
        ap.error("--workload must be one of " + ", ".join(names))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    sys.exit(self_test(spec, binary) if args.self_test else measure(spec, binary, args))


if __name__ == "__main__":
    main()
