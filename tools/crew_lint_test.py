#!/usr/bin/env python3
"""Self-test for tools/crew_lint.py against tests/lint_fixtures/.

Each bad_* fixture plants one rule's violations; this driver asserts the
exact (line, rule-id) pairs fire, that suppressed fixtures are silent, and
that exit codes follow the contract (0 clean / 1 findings). Run from the
repo root (ctest sets WORKING_DIRECTORY accordingly):

    python3 tools/crew_lint_test.py
"""

import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "tools", "crew_lint.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

# fixture file -> expected set of (line, rule-id); empty set = must be clean.
EXPECTATIONS = {
    "bad_rand.cc": {(6, "rand-source"), (7, "rand-source"),
                    (8, "rand-source")},
    "bad_wall_clock_seed.cc": {(8, "wall-clock-seed"),
                               (13, "wall-clock-seed")},
    "bad_unordered_iter.cc": {(11, "unordered-iter"), (19, "unordered-iter")},
    "bad_raw_stdio.cc": {(6, "raw-stdio"), (7, "raw-stdio"),
                         (8, "raw-stdio"), (9, "raw-stdio")},
    "bad_include_guard.h": {(1, "include-guard")},
    "bad_trace_mutate.cc": {(6, "trace-mutate"), (9, "trace-mutate"),
                            (10, "trace-mutate")},
    "bad_number_parse.cc": {(7, "lenient-number-parse"),
                            (8, "lenient-number-parse"),
                            (9, "lenient-number-parse"),
                            (10, "lenient-number-parse")},
    "suppressed.cc": set(),
    "suppressed_file.cc": set(),
    "clean.h": set(),
}

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")


def run_lint(paths, extra=()):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", REPO_ROOT, "--treat-as-library",
         *extra, *paths],
        capture_output=True, text=True, cwd=REPO_ROOT)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((int(m.group("line")), m.group("rule")))
    return proc.returncode, findings


def main():
    failures = []
    for name, expected in sorted(EXPECTATIONS.items()):
        path = os.path.join(FIXTURES, name)
        if not os.path.exists(path):
            failures.append(f"{name}: fixture missing")
            continue
        code, findings = run_lint([path])
        if findings != expected:
            failures.append(
                f"{name}: findings {sorted(findings)} != "
                f"expected {sorted(expected)}")
        want_code = 1 if expected else 0
        if code != want_code:
            failures.append(f"{name}: exit {code} != {want_code}")

    # Library-only rules must stay off for non-library paths: the raw-stdio
    # fixture is clean when scanned without --treat-as-library (its path is
    # tests/..., not src/...).
    proc = subprocess.run(
        [sys.executable, LINT, "--root", REPO_ROOT,
         os.path.join(FIXTURES, "bad_raw_stdio.cc")],
        capture_output=True, text=True, cwd=REPO_ROOT)
    if proc.returncode != 0:
        failures.append("bad_raw_stdio.cc fired outside library scope: "
                        f"{proc.stdout}")

    # The real tree must be clean — the lint gate CI runs.
    proc = subprocess.run(
        [sys.executable, LINT, "src", "bench", "examples"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    if proc.returncode != 0:
        failures.append(f"tree scan not clean:\n{proc.stdout}")

    # --list-rules must enumerate every rule the fixtures exercise.
    proc = subprocess.run([sys.executable, LINT, "--list-rules"],
                          capture_output=True, text=True, cwd=REPO_ROOT)
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line}
    exercised = {rule for exp in EXPECTATIONS.values() for _, rule in exp}
    missing = exercised - listed
    if missing:
        failures.append(f"--list-rules missing: {sorted(missing)}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"crew_lint_test: {len(EXPECTATIONS)} fixtures + tree scan OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
