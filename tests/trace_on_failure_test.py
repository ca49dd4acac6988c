#!/usr/bin/env python3
"""A failed run still writes its --trace.

A run killed by the fault injector after two cells, or refused because its
checkpoint belongs to another configuration, exits 1 and leaves the Chrome
trace of what it did before failing. The fault-injected traces must pass
tools/validate_trace.py; the refused resume ran no span, so its trace only
has to parse with an empty event list.

    python3 tests/trace_on_failure_test.py <bench_t3_faithfulness> \\
        <run_experiment> <tools/validate_trace.py>
"""

import json
import os
import subprocess
import sys
import tempfile

SMALL = ["--instances", "2", "--samples", "16"]


def run(cmd, cwd):
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    t3, run_experiment, validate = argv[1:]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def expect_failed_with_trace(label, cmd, trace, validated):
            proc = run(cmd, tmp)
            if proc.returncode != 1:
                failures.append(f"{label}: exit {proc.returncode}, want 1\n"
                                f"{proc.stderr}")
                return
            path = os.path.join(tmp, trace)
            if not os.path.isfile(path):
                failures.append(f"{label}: no {trace} written")
                return
            if validated:
                check = run([sys.executable, validate, path], tmp)
                if check.returncode != 0:
                    failures.append(f"{label}: validate_trace refused "
                                    f"{trace}: {check.stderr}")
            else:
                try:
                    with open(path, encoding="utf-8") as f:
                        events = json.load(f)["traceEvents"]
                    if not isinstance(events, list):
                        raise ValueError("traceEvents is not a list")
                except (OSError, ValueError, KeyError) as e:
                    failures.append(f"{label}: {trace} does not parse: {e}")

        t3_args = [t3, "--dataset", "products-structured"] + SMALL
        expect_failed_with_trace(
            "t3 --fail-after-cells 2",
            t3_args + ["--resume", "ck.jsonl", "--fail-after-cells", "2",
                       "--trace", "tr.json"],
            "tr.json", validated=True)
        # The checkpoint now holds mlp cells; an embedding_bag resume of it
        # is refused before any work.
        expect_failed_with_trace(
            "t3 refused resume",
            t3_args + ["--matcher", "embedding_bag", "--resume", "ck.jsonl",
                       "--trace", "refused.json"],
            "refused.json", validated=False)
        expect_failed_with_trace(
            "run_experiment --fail-after-cells 1",
            [run_experiment, "--datasets", "products-structured"] + SMALL +
            ["--threads", "2", "--fail-after-cells", "1",
             "--trace", "example.json"],
            "example.json", validated=True)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"trace_on_failure_test: {3 - len(failures)}/3 cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
