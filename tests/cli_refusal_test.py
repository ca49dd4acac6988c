#!/usr/bin/env python3
"""Refusal matrix for the strict command line of the bench/example binaries.

Every command line below must be refused before any work starts: exit
status 2, stderr naming the offending argument followed by the declared
flag list, nothing on stdout, and no --json file left behind (the --json
flag is parsed before the bad argument, so a refusal that came too late
would show up as a written file).

    python3 tests/cli_refusal_test.py <bench_t3_faithfulness> \\
        <bench_f4_runtime> <explain_csv> <bench_t1_datasets> \\
        <bench_t2_matchers>
"""

import os
import subprocess
import sys
import tempfile

# Valid flags that keep a wrongly accepted run small.
SMALL = ["--dataset", "products-structured", "--instances", "2",
         "--samples", "8"]
# t1 and t2 explain nothing, so they declare neither --instances nor
# --samples.
SMALL_DATA = ["--dataset", "products-structured"]


def cases(t3, f4, explain_csv, t1, t2):
    """(binary, arguments, text stderr must contain, valid flags to prepend
    along with --json; None for a binary without --json)."""
    return [
        (t3, ["--sampels=8"], "--sampels", SMALL),
        (t3, ["--instances=abc"], "--instances", SMALL),
        (t3, ["--seed=-1"], "--seed", SMALL),
        (t3, ["--help"], "--help", SMALL),
        (t3, ["oops"], "oops", SMALL),
        (t3, ["--matcher", "nope"], "--matcher", SMALL),
        (t3, ["--dataset", "nope"], "--dataset", SMALL),
        (f4, ["--sweep", "32,0"], "--sweep", SMALL),
        (f4, ["--dataset", "nope"], "--dataset", SMALL),
        (t1, ["--instances", "2"], "--instances", SMALL_DATA),
        (t2, ["--matcher", "rule"], "--matcher", SMALL_DATA),
        (t2, ["--samples", "16"], "--samples", SMALL_DATA),
        (explain_csv, ["--pairr", "3"], "--pairr", None),
    ]


def main(argv):
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (binary, args, culprit, small) in enumerate(cases(*argv[1:])):
            json_path = os.path.join(tmp, f"case{i}.json")
            cmd = [binary] + (small + ["--json", json_path]
                              if small is not None else []) + args
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=tmp, timeout=120)
            label = " ".join([os.path.basename(binary)] + args)
            if proc.returncode != 2:
                failures.append(f"{label}: exit {proc.returncode}, want 2")
            if culprit not in proc.stderr:
                failures.append(f"{label}: stderr does not name {culprit!r}:"
                                f"\n{proc.stderr}")
            if "flags (--name=value" not in proc.stderr:
                failures.append(f"{label}: stderr lacks the flag list")
            if proc.stdout:
                failures.append(f"{label}: stdout not empty:\n{proc.stdout}")
            if os.path.exists(json_path):
                failures.append(f"{label}: wrote {json_path}")
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        return 1
    print(f"cli_refusal_test: {len(cases(*argv[1:]))} command lines refused")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
