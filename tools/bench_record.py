#!/usr/bin/env python3
"""Records a parent-vs-change benchmark comparison as a BENCH_*.json file.

    python3 tools/bench_record.py --parent <checkout> --change <checkout> \\
        --workload paper-grid [--workload crew-interactive ...] \\
        --seeds 101,202 --pairs 4 --out BENCH_<n>.json
    python3 tools/bench_record.py --self-test

For every workload and seed it runs `perfbench/run.py --workload <w>
--seed <s> --trace 0` in both checkouts, in alternating pairs: pair 0 runs
the parent first, pair 1 the change first, and so on, so drift on a shared
machine falls on both sides alike. The output holds every run's
end-to-end metrics and record fields (git sha, nproc, compiler, build
type), and per workload and metric, for each side, the median, the
quartiles and the number of pairs that side won, plus the change's
median delta against the metric's bound in BENCHMARK.json.

--self-test runs the whole pipeline against a stub runner and checks the
output's structure and arithmetic only (no timing thresholds, no build).
python3 only; nothing under perfbench/ is changed or needed by the stub.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

RECORD_FIELDS = ("git_sha", "nproc", "compiler", "build_type", "threads")


def perfbench_runner(checkout, workload, seed):
    """Runs one untraced perfbench run; returns (record, result) or raises."""
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        return json.loads(lines[-2])["record"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as e:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed}: no result "
            f"(exit {proc.returncode}): {e}") from e


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def collect(runner, parent, change, workloads, seeds, pairs):
    """Every run, in the order it ran."""
    runs = []
    for workload in workloads:
        for seed in seeds:
            for pair in range(pairs):
                order = ("parent", "change") if pair % 2 == 0 else (
                    "change", "parent")
                for side in order:
                    checkout = parent if side == "parent" else change
                    record, result = runner(checkout, workload, seed)
                    runs.append({
                        "side": side, "workload": workload, "seed": seed,
                        "pair": pair,
                        "correct": bool(result["correct"]),
                        "failed": result["failed"],
                        "record": {k: record.get(k) for k in RECORD_FIELDS},
                        "metrics": {m["name"]: m["value"]
                                    for m in record["metrics"]},
                        "better": {m["name"]: m["better"]
                                   for m in record["metrics"]},
                    })
    return runs


def summarize(runs, bounds):
    """Per workload and metric: each side's quartiles and pair wins."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        by_key = {(r["seed"], r["pair"], r["side"]): r for r in mine}
        keys = sorted({(r["seed"], r["pair"]) for r in mine})
        names = sorted(set.intersection(*(set(r["metrics"]) for r in mine)))
        metrics = {}
        for name in names:
            better = mine[0]["better"][name]
            sides = {}
            for side in ("parent", "change"):
                values = [by_key[k + (side,)]["metrics"][name] for k in keys]
                q1, median, q3 = quartiles(values)
                sides[side] = {"median": median, "q1": q1, "q3": q3,
                               "n": len(values), "wins": 0}
            for key in keys:
                p = by_key[key + ("parent",)]["metrics"][name]
                c = by_key[key + ("change",)]["metrics"][name]
                if p == c:
                    continue
                change_better = c < p if better == "lower" else c > p
                sides["change" if change_better else "parent"]["wins"] += 1
            base = sides["parent"]["median"]
            delta = ((sides["change"]["median"] - base) / abs(base)
                     if base else 0.0)
            entry = {"better": better, "parent": sides["parent"],
                     "change": sides["change"], "pairs": len(keys),
                     "median_delta_frac": delta}
            if name in bounds:
                worse = delta if better == "lower" else -delta
                entry["bound"] = bounds[name]
                entry["worse_beyond_bound"] = worse > bounds[name]
            metrics[name] = entry
        summary[workload] = {
            "all_correct": all(r["correct"] and not r["failed"] for r in mine),
            "metrics": metrics,
        }
    return summary


def record(runner, parent, change, workloads, seeds, pairs, bounds):
    runs = collect(runner, parent, change, workloads, seeds, pairs)
    summary = summarize(runs, bounds)
    for r in runs:
        del r["better"]
    return {
        "workloads": list(workloads),
        "seeds": list(seeds),
        "pairs_per_seed": pairs,
        "order": "alternating; even pairs run the parent first",
        "sides": {side: next(r for r in runs if r["side"] == side)["record"]
                  for side in ("parent", "change")},
        "summary": summary,
        "runs": runs,
    }


def load_bounds(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def self_test(root):
    """Structure and arithmetic on a stub runner; returns a problem list."""
    calls = []

    def stub(checkout, workload, seed):
        # The change is 10% faster on wall_s in every pair but the last of
        # seed 2; peak RSS is equal everywhere.
        calls.append((checkout, workload, seed))
        pair = (sum(1 for c in calls if c[1:] == (workload, seed)) - 1) // 2
        wall = 2.0 + 0.01 * len(calls)
        if checkout == "C" and not (seed == 2 and pair == 2):
            wall *= 0.9
        record_ = {
            "git_sha": checkout * 8, "nproc": 4, "compiler": "stub",
            "build_type": "Release", "threads": 4,
            "metrics": [
                {"name": "wall_s", "value": wall, "unit": "s",
                 "better": "lower", "samples": 1},
                {"name": "peak_rss_mb", "value": 15.0, "unit": "MB",
                 "better": "lower", "samples": 1},
                {"name": "explanations_per_s", "value": 1.0 / wall,
                 "unit": "1/s", "better": "higher", "samples": 1},
            ],
        }
        return record_, {"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {}}

    problems = []
    bounds = load_bounds(root)
    doc = record(stub, "P", "C", ["paper-grid"], [1, 2], 3, bounds)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "BENCH_test.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    expect(set(doc) == {"workloads", "seeds", "pairs_per_seed", "order",
                        "sides", "summary", "runs"},
           f"top-level keys {sorted(doc)}")
    expect(len(doc["runs"]) == 12, f"{len(doc['runs'])} runs, want 12")
    order = [c[0] for c in calls]
    expect(order == ["P", "C", "C", "P", "P", "C"] * 2,
           f"run order {order}, want alternating pairs")
    for side, sha in (("parent", "PPPPPPPP"), ("change", "CCCCCCCC")):
        rec = doc["sides"].get(side, {})
        expect(set(rec) == set(RECORD_FIELDS), f"{side} record {sorted(rec)}")
        expect(rec.get("git_sha") == sha, f"{side} sha {rec.get('git_sha')}")
    for run in doc["runs"]:
        expect(set(run) == {"side", "workload", "seed", "pair", "correct",
                            "failed", "record", "metrics"},
               f"run keys {sorted(run)}")
    summary = doc["summary"].get("paper-grid", {})
    expect(summary.get("all_correct") is True, "all_correct not true")
    wall = summary.get("metrics", {}).get("wall_s", {})
    expect(wall.get("pairs") == 6, f"wall_s pairs {wall.get('pairs')}")
    expect(wall.get("change", {}).get("wins") == 5
           and wall.get("parent", {}).get("wins") == 1,
           f"wall_s wins {wall.get('change')} / {wall.get('parent')}")
    for side in ("parent", "change"):
        s = wall.get(side, {})
        values = sorted(r["metrics"]["wall_s"] for r in doc["runs"]
                        if r["side"] == side)
        expect(s.get("n") == 6, f"{side} n {s.get('n')}")
        expect(s.get("median") == statistics.median(values),
               f"{side} median {s.get('median')}")
        expect(s.get("q1", 1e9) <= s.get("median", 0) <= s.get("q3", -1e9),
               f"{side} quartiles out of order: {s}")
    expect(wall.get("median_delta_frac", 0) < 0, "wall_s delta not negative")
    expect(wall.get("worse_beyond_bound") is False, "wall_s flagged worse")
    eps = summary.get("metrics", {}).get("explanations_per_s", {})
    expect(eps.get("change", {}).get("wins") == 5,
           "explanations_per_s (higher is better) wins not counted for change")
    rss = summary.get("metrics", {}).get("peak_rss_mb", {})
    expect(rss.get("change", {}).get("wins") == 0
           and rss.get("parent", {}).get("wins") == 0,
           "a tie counted as a win")
    expect(rss.get("bound") == bounds.get("peak_rss_mb"),
           "peak_rss_mb bound not taken from BENCHMARK.json")
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        choices=["paper-grid", "crew-interactive",
                                 "grid-resume"])
    parser.add_argument("--seeds", default="101",
                        help="comma-separated perfbench seeds")
    parser.add_argument("--pairs", type=int, default=4,
                        help="alternating pairs per seed")
    parser.add_argument("--out", help="BENCH_*.json to write")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        problems = self_test(root)
        for p in problems:
            print(f"bench_record self-test FAILED: {p}", file=sys.stderr)
        print("bench_record self-test: " + ("ok" if not problems else
                                            f"{len(problems)} problem(s)"))
        return 1 if problems else 0
    if not (args.parent and args.change and args.workload and args.out):
        parser.error("--parent, --change, --workload and --out are required")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error("--seeds must be comma-separated integers")
    if args.pairs < 1 or any(s < 0 for s in seeds):
        parser.error("--pairs must be >= 1 and seeds >= 0")
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            parser.error(f"{checkout} has no perfbench/run.py")
    try:
        doc = record(perfbench_runner, os.path.abspath(args.parent),
                     os.path.abspath(args.change), args.workload, seeds,
                     args.pairs, load_bounds(root))
    except RuntimeError as e:
        print(f"bench_record: {e}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    for workload, s in doc["summary"].items():
        for name, m in sorted(s["metrics"].items()):
            print(f"{workload}/{name}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} "
                  f"({100 * m['median_delta_frac']:+.1f}%, change won "
                  f"{m['change']['wins']}/{m['pairs']})")
    print(f"wrote {args.out}")
    return 0 if all(s["all_correct"] for s in doc["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
