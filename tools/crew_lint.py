#!/usr/bin/env python3
"""CREW project lint: machine-checks the determinism and logging invariants.

CREW's evaluation depends on bit-reproducible pipelines (see DESIGN.md
"Correctness tooling"): every RNG is constructed from an explicit seed, no
ordered output may be derived from hash-map iteration order, and the
observability layer (tracing/metrics) must never feed back into what the
pipeline computes. This lint enforces those invariants textually so they are
caught in CI instead of in a reviewer's head.

Usage:
    tools/crew_lint.py [options] <file-or-dir>...

Rules (ids are stable; see --list-rules):
    rand-source       Unseeded randomness: rand()/srand()/std::random_device/
                      std::random_shuffle. RNGs must be crew::Rng (or a std
                      engine) constructed from an explicit seed parameter.
    wall-clock-seed   Seeding an RNG from the wall clock (time(nullptr),
                      <chrono> ::now()). Seeds must be explicit inputs.
    unordered-iter    Iterating a std::unordered_map/std::unordered_set
                      (range-for or .begin()/.cbegin()/.rbegin()). Hash
                      iteration order is unspecified; anything ordered that
                      is derived from it is non-reproducible. Convert to
                      sorted access or justify with a suppression.
    raw-stdio         std::cout/std::cerr/printf-family in library code
                      (src/). Use CREW_LOG (crew/common/logging.h) so
                      severity filtering and thread ids apply.
    include-guard     Header guard must be CREW_<PATH>_H_ derived from the
                      repo-relative path (src/ stripped), with a matching
                      #define on the next preprocessor line.
    trace-mutate      Tracing/metrics state observed by compute-path control
                      flow (CREW_TRACE_SPAN or TracingEnabled() inside a
                      condition, assigned, or returned; ScopedMetricStage in
                      a condition). Observability must be write-only for the
                      pipeline: toggling tracing can never change a result.
    lenient-number-parse
                      atoi/atol/atof/strto*/std::sto* outside
                      src/crew/common/string_util.cc. These accept trailing
                      junk, or wrap "-1" into a huge unsigned value; parse
                      numbers with ParseInt/ParseUint64/ParseDouble, which
                      refuse anything they cannot read in full.

Suppressions:
    // crew-lint: allow(<rule-id>)[: reason]
        on the offending line, or anywhere in the contiguous // comment
        block immediately above it.
    // crew-lint: allow-file(<rule-id>)[: reason]
        within the first 50 lines: suppresses the rule for the whole file.

Exit status: 0 when clean, 1 when any finding is emitted, 2 on usage error.
"""

import argparse
import os
import re
import sys

EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")
SKIP_DIR_PARTS = {"build", "build-tsan", ".git", "CMakeFiles", "lint_fixtures"}

ALLOW_RE = re.compile(r"//\s*crew-lint:\s*allow\(([\w\-, ]+)\)")
ALLOW_FILE_RE = re.compile(r"//\s*crew-lint:\s*allow-file\(([\w\-, ]+)\)")

RULES = {
    "rand-source": "unseeded randomness source (rand/srand/std::random_device)",
    "wall-clock-seed": "RNG seeded from the wall clock",
    "unordered-iter": "iteration over an unordered container",
    "raw-stdio": "raw stdout/stderr in library code (use CREW_LOG)",
    "include-guard": "non-canonical or missing include guard",
    "trace-mutate": "observability state observed by compute-path control flow",
    "lenient-number-parse": "lenient C/C++ number parser (use ParseInt/"
                            "ParseUint64/ParseDouble)",
}

# The one file allowed to call the C parsers: it wraps them strictly.
NUMBER_PARSER_HOME = "src/crew/common/string_util.cc"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_strings_and_comments(line):
    """Removes string/char literal contents and // comments so rule regexes
    do not fire on text inside them. Keeps the line length roughly stable."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a comment
        out.append(c)
        i += 1
    return "".join(out)


RAND_RE = re.compile(
    r"std::random_device|std::random_shuffle"
    r"|(?:std::|(?<![\w:.>]))s?rand\s*\(")
WALL_SEED_CONTEXT_RE = re.compile(
    r"\bRng\s*[({]|\bmt19937(_64)?\b|default_random_engine|[Ss]eed")
WALL_CLOCK_RE = re.compile(
    r"::now\s*\(|(?<![\w:])time\s*\(\s*(nullptr|NULL|0)\s*\)")
RAW_STDIO_RE = re.compile(
    r"std::(cout|cerr|clog)\b|(?:std::|(?<![\w:.>]))(?:f?printf|puts)\s*\(")
TRACE_COND_RE = re.compile(
    r"\b(if|while|switch)\s*\(.*"
    r"(CREW_TRACE_SPAN|ScopedMetricStage\s*\(|TracingEnabled\s*\(\s*\))")
TRACE_VALUE_RE = re.compile(
    r"(=|\breturn\b)\s*(CREW_TRACE_SPAN|TracingEnabled\s*\(\s*\))")
TRACE_SPAN_STMT_RE = re.compile(r"^\s*CREW_TRACE_SPAN\s*\(")
TRACE_SPAN_ANY_RE = re.compile(r"CREW_TRACE_SPAN\s*\(")
LENIENT_NUMBER_RE = re.compile(
    r"(?:std::|(?<![\w:.>]))"
    r"(?:ato(?:i|l|ll|f)|strto(?:d|f|ld|l|ll|ul|ull|imax|umax)"
    r"|sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(")

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}()]*>\s*[&*]?\s*(\w+)\s*[;,={(\[)]")
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std::unordered_(?:map|set)\b"
    r"|typedef\s+std::unordered_(?:map|set)\s*<[^;]*>\s*(\w+)\s*;")


def find_unordered_names(text):
    """Names of variables/members declared with an unordered container type
    in this file (heuristic, single-file view), plus type aliases for
    unordered containers and variables declared with those aliases."""
    names = set(m.group(1) for m in UNORDERED_DECL_RE.finditer(text))
    aliases = set()
    for m in UNORDERED_ALIAS_RE.finditer(text):
        aliases.add(m.group(1) or m.group(2))
    for alias in aliases:
        for m in re.finditer(
                r"\b%s\s*[&*]?\s+[&*]?\s*(\w+)\s*[;,={(\[)]" % re.escape(alias),
                text):
            names.add(m.group(1))
    # Declared-but-common words that would be noisy to track.
    names.discard("const")
    return names


def expected_guard(relpath):
    path = relpath.replace(os.sep, "/")
    if path.startswith("src/"):
        path = path[len("src/"):]
    guard = re.sub(r"[^A-Za-z0-9]", "_", path).upper() + "_"
    if not guard.startswith("CREW_"):
        guard = "CREW_" + guard
    return guard


def check_include_guard(relpath, raw_lines):
    guard = expected_guard(relpath)
    ifndef_idx = None
    for i, line in enumerate(raw_lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("#ifndef"):
            ifndef_idx = i
        break
    if ifndef_idx is None:
        return [Finding(relpath, 1, "include-guard",
                        f"missing include guard; expected #ifndef {guard}")]
    got = raw_lines[ifndef_idx].split()
    if len(got) < 2 or got[1] != guard:
        return [Finding(relpath, ifndef_idx + 1, "include-guard",
                        f"guard is {got[1] if len(got) > 1 else '<none>'}; "
                        f"expected {guard}")]
    for j in range(ifndef_idx + 1, min(ifndef_idx + 3, len(raw_lines))):
        stripped = raw_lines[j].strip()
        if stripped.startswith("#define"):
            parts = stripped.split()
            if len(parts) < 2 or parts[1] != guard:
                return [Finding(relpath, j + 1, "include-guard",
                                f"#define does not match guard {guard}")]
            return []
    return [Finding(relpath, ifndef_idx + 1, "include-guard",
                    f"#ifndef {guard} not followed by #define {guard}")]


def line_suppressions(raw_lines, index):
    """Rules suppressed for raw_lines[index]: markers on the line itself or
    in the contiguous // comment block directly above it."""
    rules = set()
    for m in ALLOW_RE.finditer(raw_lines[index]):
        rules.update(r.strip() for r in m.group(1).split(","))
    i = index - 1
    while i >= 0 and raw_lines[i].strip().startswith("//"):
        for m in ALLOW_RE.finditer(raw_lines[i]):
            rules.update(r.strip() for r in m.group(1).split(","))
        i -= 1
    return rules


def lint_file(path, relpath, is_library):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [Finding(relpath, 1, "io", str(e))]

    file_allows = set()
    for line in raw_lines[:50]:
        for m in ALLOW_FILE_RE.finditer(line):
            file_allows.update(r.strip() for r in m.group(1).split(","))

    code_lines = [strip_strings_and_comments(l) for l in raw_lines]
    text = "\n".join(code_lines)
    unordered_names = find_unordered_names(text)
    iter_res = []
    for name in unordered_names:
        escaped = re.escape(name)
        iter_res.append(re.compile(
            r"for\s*\([^;)]*:\s*[&*]?\s*%s\s*\)" % escaped))
        iter_res.append(re.compile(
            r"\b%s\s*\.\s*(begin|cbegin|rbegin)\s*\(" % escaped))

    findings = []

    def add(i, rule, message):
        if rule in file_allows:
            return
        if rule in line_suppressions(raw_lines, i):
            return
        findings.append(Finding(relpath, i + 1, rule, message))

    for i, code in enumerate(code_lines):
        m = RAND_RE.search(code)
        if m:
            add(i, "rand-source",
                f"'{m.group(0).strip()}' is not seed-reproducible; take an "
                "explicit seed and use crew::Rng")
        if WALL_CLOCK_RE.search(code) and WALL_SEED_CONTEXT_RE.search(code):
            add(i, "wall-clock-seed",
                "RNG/seed derived from the wall clock; seeds must be "
                "explicit parameters")
        for rx in iter_res:
            if rx.search(code):
                add(i, "unordered-iter",
                    "iteration over an unordered container; hash order is "
                    "unspecified — sort first or justify with "
                    "// crew-lint: allow(unordered-iter): <reason>")
                break
        if is_library and RAW_STDIO_RE.search(code):
            add(i, "raw-stdio",
                "library code must log via CREW_LOG, not raw stdout/stderr")
        if relpath != NUMBER_PARSER_HOME:
            m = LENIENT_NUMBER_RE.search(code)
            if m:
                add(i, "lenient-number-parse",
                    f"'{m.group(0).rstrip('( ')}' accepts malformed input; "
                    "use ParseInt/ParseUint64/ParseDouble "
                    "(crew/common/string_util.h)")
        if TRACE_COND_RE.search(code) or TRACE_VALUE_RE.search(code):
            add(i, "trace-mutate",
                "control flow observes tracing/metrics state; observability "
                "must be write-only for the pipeline")
        elif TRACE_SPAN_ANY_RE.search(code) and \
                not TRACE_SPAN_STMT_RE.match(code):
            add(i, "trace-mutate",
                "CREW_TRACE_SPAN must be a standalone statement (RAII span)")

    if relpath.endswith((".h", ".hpp")) and "include-guard" not in file_allows:
        for f_ in check_include_guard(relpath, raw_lines):
            if "include-guard" not in line_suppressions(
                    raw_lines, f_.line - 1):
                findings.append(f_)

    return findings


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = [d for d in dirs if d not in SKIP_DIR_PARTS]
                for name in sorted(names):
                    if name.endswith(EXTENSIONS):
                        files.append(os.path.join(root, name))
        else:
            print(f"crew_lint: no such file or directory: {p}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def main():
    parser = argparse.ArgumentParser(
        description="CREW determinism/logging lint",
        usage="%(prog)s [options] <file-or-dir>...")
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--root", default=".",
                        help="repo root used to derive guard names and the "
                             "library (src/) scope (default: cwd)")
    parser.add_argument("--treat-as-library", action="store_true",
                        help="apply library-only rules (raw-stdio) to every "
                             "scanned file regardless of path")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:18} {desc}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    findings = []
    for path in collect_files(args.paths):
        relpath = os.path.relpath(path, args.root).replace(os.sep, "/")
        is_library = args.treat_as_library or relpath.startswith("src/")
        findings.extend(lint_file(path, relpath, is_library))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"crew_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
