#!/usr/bin/env python3
"""CREW benchmark: builds the benchmark binary from this checkout and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads (see perfbench/src/workloads.h for why each was chosen):
  paper-grid        T3 grid, 9 datasets x 10 explainers, mlp, 4 threads
  crew-interactive  closed-loop single-pair CREW requests, embedding-bag, 1 thread
  grid-resume       T3 grid resumed from a 60-of-90-cell checkpoint, 1 thread

--trace 0 prints the end-to-end metrics, --trace 1 (a separate run) the
per-layer metrics. Each run prints a full record line (every metric with
unit, direction and sample count, plus git sha, nproc, compiler, build type,
threads and seed) and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}. The exit status is non-zero
when a correctness check fails or the checkout cannot be built.

--workload all runs every workload untraced and traced (so every correctness
check runs) and ends with one combined result; --trace is then ignored.
--self-test runs every workload at a tiny size, traced and untraced, and
checks the output's structure only (no timing thresholds).

Everything built or written goes under .bench_build/ in the checkout.
"""

import argparse
import json
import math
import os
import subprocess
import sys

WORKLOADS = ["paper-grid", "crew-interactive", "grid-resume"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "crew_perfbench")
# Compiler temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; CMake output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "crew")
    ):
        log(f"{ROOT} holds no CREW sources (CMakeLists.txt, src/crew); nothing to build")
        return False
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=ENV).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_one(workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs the binary once; returns (exit code, record, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    record = result = None
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        pass
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, record, result


def run_all(args):
    """Every workload, untraced then traced, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, record, result = run_one(workload, args.seed, args.seconds, trace, echo=False)
            if result is None or record is None:
                log(f"{workload} trace={trace}: no result (exit {code})")
                return code or 1
            status = status or code
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for m in record["metrics"]:
                key = f"{workload}/{m['name']}"
                combined["metrics"][key] = {"value": m["value"], "unit": m["unit"]}
                rows.append((key, m["value"], m["unit"], m["better"], m["samples"]))
            rows.append((f"{workload}/error_rate[trace={trace}]", record["error_rate"], "frac",
                         "lower", record["attempted"]))
            for failure in record["failures"]:
                log(f"{workload} trace={trace}: FAILED {failure}")
    width = max(len(r[0]) for r in rows)
    for name, value, unit, better, samples in rows:
        n = f"  n={samples}" if samples else ""
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} ({better} is better){n}")
    print(json.dumps(combined))
    return status


def self_test():
    """Tiny traced and untraced run of every workload; structure only."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, record, result = run_one(workload, 3, 1, trace, tiny=True, echo=False)
            where = f"{workload} trace={trace}"
            if result is None or record is None:
                problems.append(f"{where}: no result (exit {code})")
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, failures {record['failures']}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} has {got}")
            undeclared = set(metrics) - {m["name"] for m in declared}
            if undeclared:
                problems.append(f"{where}: undeclared metrics {sorted(undeclared)}")
            for m in record["metrics"]:
                if not m["unit"] or m["better"] not in ("lower", "higher"):
                    problems.append(f"{where}: {m['name']} lacks unit or direction")
            if trace == 1:
                for name, v in metrics.items():
                    if v["unit"] == "ms" and v["value"] < 0:
                        problems.append(f"{where}: layer time {name} = {v['value']} < 0")
                layers = record["layers"]
                if not layers:
                    problems.append(f"{where}: no layer spans recorded")
                total = sum(metrics[name]["value"] for name in layers) + metrics["unattributed_ms"]["value"]
                wall = metrics["trace.wall_ms"]["value"]
                if not math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-6):
                    problems.append(f"{where}: layers + unattributed = {total} ms != wall {wall} ms")
            log(f"self-test {where}: checked {len(metrics)} metrics")
    for p in problems:
        log("self-test FAILED: " + p)
    print(json.dumps({"self_test": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required (or --self-test)")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    code, _, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
