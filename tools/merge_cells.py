#!/usr/bin/env python3
"""Merges and validates per-cell JSONL shards from the streaming sinks.

Each shard (written by --stream / --resume on the bench binaries) is one
header line followed by one line per completed cell, all stamped with the
schema version. Cross-process sharding story: run each shard of the grid
in its own process with its own --stream file, then merge here.

The merge is deterministic: cells are emitted sorted by (scope, dataset,
variant), under a single header, regardless of shard order or completion
order inside a shard. Validation refuses:
  * any line whose schema version is not the expected one;
  * shards whose headers name different experiments, or record different
    params (all but "threads", which cannot change a result);
  * the same cell key appearing twice with *different* payloads (identical
    duplicates — a cell both checkpointed and re-streamed — are deduped
    with a warning).
An unterminated trailing line (a crash artifact) is dropped with a
warning, matching the C++ CheckpointStore recovery contract; corruption
anywhere else is fatal.

Usage:
  tools/merge_cells.py shard1.jsonl shard2.jsonl ... -o merged.jsonl
  tools/merge_cells.py --check shard.jsonl        # validate only
  tools/merge_cells.py --self-test                # run the built-in tests

Exit code 0 on success, 1 with a diagnostic on the first violation.
"""

import io
import json
import os
import sys
import tempfile

SCHEMA_VERSION = 1


class MergeError(Exception):
    pass


def warn(msg):
    print(f"merge_cells: warning: {msg}", file=sys.stderr)


def cell_key(record):
    scope = record.get("scope", "")
    prefix = f"{scope}|" if scope else ""
    return f"{prefix}{record['dataset']}|{record['variant']}"


def run_params(header):
    """The header params a merged grid must agree on: all but threads."""
    return [p for p in header.get("params", []) if p[0] != "threads"]


def same_config(a, b):
    return (a["experiment"] == b["experiment"] and
            run_params(a) == run_params(b))


def config_label(header):
    params = ", ".join(f"{k}={v}" for k, v in header.get("params", []))
    return f"'{header['experiment']}' ({params})"


def parse_shard(path, text):
    """Returns (header_record_or_None, {key: (record, line)}) for one shard."""
    header = None
    cells = {}
    lines = text.split("\n")
    # A terminated file ends with "\n", so split() leaves one trailing "".
    terminated = lines and lines[-1] == ""
    if terminated:
        lines.pop()
    for i, line in enumerate(lines):
        last = i == len(lines) - 1
        torn = last and not terminated
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if torn:
                warn(f"{path}: dropping unterminated trailing line "
                     f"(crash artifact, {len(line)} byte(s))")
                break
            raise MergeError(f"{path}:{i + 1}: not valid JSON")
        if not isinstance(record, dict) or "v" not in record:
            raise MergeError(f"{path}:{i + 1}: record has no version field")
        if record["v"] != SCHEMA_VERSION:
            # Version mismatch is fatal anywhere, even on a torn-looking
            # tail: silently recomputing another writer's cells is worse
            # than asking the operator to resolve the mismatch.
            raise MergeError(
                f"{path}:{i + 1}: unsupported schema version {record['v']} "
                f"(expected {SCHEMA_VERSION})")
        kind = record.get("kind")
        if kind == "header":
            if "experiment" not in record:
                raise MergeError(f"{path}:{i + 1}: header has no experiment")
            if header is None:
                header = record
            elif not same_config(header, record):
                raise MergeError(
                    f"{path}:{i + 1}: shard mixes configurations "
                    f"{config_label(header)} vs {config_label(record)}")
        elif kind == "cell":
            if torn:
                # Parsed fine but the line never got its newline: treat as
                # complete (the payload is intact).
                pass
            for field in ("dataset", "variant"):
                if field not in record:
                    raise MergeError(f"{path}:{i + 1}: cell has no {field}")
            key = cell_key(record)
            if key in cells and cells[key][0] != record:
                raise MergeError(
                    f"{path}:{i + 1}: duplicate cell '{key}' with "
                    f"conflicting payloads")
            if key in cells:
                warn(f"{path}: duplicate identical cell '{key}'; deduped")
            else:
                cells[key] = (record, line)
        else:
            raise MergeError(f"{path}:{i + 1}: unknown record kind: {kind!r}")
    return header, cells


def merge(paths):
    """Returns (header_line, [cell_line...]) merged across shards."""
    first_header = None
    header_line = None
    merged = {}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise MergeError(f"{path}: {e}")
        header, cells = parse_shard(path, text)
        if header is not None:
            if first_header is None:
                first_header = header
                header_line = json.dumps(header, separators=(",", ":"))
            elif not same_config(first_header, header):
                raise MergeError(
                    f"{path}: configuration {config_label(header)} does not "
                    f"match {config_label(first_header)} from earlier shards")
        for key, (record, line) in cells.items():
            if key in merged and merged[key][0] != record:
                raise MergeError(
                    f"{path}: cell '{key}' conflicts with an earlier shard")
            if key in merged:
                warn(f"{path}: cell '{key}' duplicated across shards; "
                     f"deduped")
            else:
                merged[key] = (record, line)
    ordered = sorted(
        merged.values(),
        key=lambda rc: (rc[0].get("scope", ""), rc[0]["dataset"],
                        rc[0]["variant"]))
    return header_line, [line for _, line in ordered]


def run(argv, out=sys.stdout):
    check_only = "--check" in argv
    argv = [a for a in argv if a != "--check"]
    output = None
    if "-o" in argv:
        i = argv.index("-o")
        if i + 1 >= len(argv):
            raise MergeError("-o needs a path")
        output = argv[i + 1]
        del argv[i:i + 2]
    if not argv:
        raise MergeError(
            "usage: merge_cells.py [--check] shard.jsonl ... [-o merged]")
    header_line, cell_lines = merge(argv)
    if check_only:
        print(f"merge_cells: OK: {len(cell_lines)} cell(s) across "
              f"{len(argv)} shard(s)", file=out)
        return
    sink = out
    close = False
    if output is not None:
        sink = open(output, "w", encoding="utf-8")
        close = True
    try:
        if header_line is not None:
            print(header_line, file=sink)
        for line in cell_lines:
            print(line, file=sink)
    finally:
        if close:
            sink.close()


# ---------------------------------------------------------------------------
# Self-test (run as a ctest: merge_cells.py --self-test)
# ---------------------------------------------------------------------------

def _header(experiment="exp", params=()):
    return json.dumps({"v": 1, "kind": "header", "experiment": experiment,
                       "params": [list(p) for p in params]},
                      separators=(",", ":"))


def _cell(dataset, variant, scope="", aopc=0.0):
    return json.dumps({"v": 1, "kind": "cell", "scope": scope,
                       "dataset": dataset, "variant": variant,
                       "aggregate": {"aopc": aopc}},
                      separators=(",", ":"))


def _write(tmpdir, name, content):
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)
    return path


def _expect_raises(fn, fragment):
    try:
        fn()
    except MergeError as e:
        assert fragment in str(e), f"expected '{fragment}' in '{e}'"
        return
    raise AssertionError(f"expected MergeError containing '{fragment}'")


def self_test():
    with tempfile.TemporaryDirectory() as tmp:
        # Deterministic merge order: cells sorted by (scope, dataset,
        # variant) regardless of shard order and in-shard completion order.
        a = _write(tmp, "a.jsonl",
                   _header() + "\n" + _cell("d2", "v1") + "\n" +
                   _cell("d1", "v2") + "\n")
        b = _write(tmp, "b.jsonl",
                   _header() + "\n" + _cell("d1", "v1", scope="s") + "\n" +
                   _cell("d1", "v1") + "\n")
        out1 = io.StringIO()
        run([b, a, "-o", os.path.join(tmp, "m1.jsonl")], out=out1)
        out2 = io.StringIO()
        run([a, b, "-o", os.path.join(tmp, "m2.jsonl")], out=out2)
        with open(os.path.join(tmp, "m1.jsonl"), encoding="utf-8") as f:
            m1 = f.read()
        with open(os.path.join(tmp, "m2.jsonl"), encoding="utf-8") as f:
            m2 = f.read()
        assert m1 == m2, "merge must not depend on shard order"
        keys = [cell_key(json.loads(line)) for line in m1.splitlines()[1:]]
        assert keys == ["d1|v1", "d1|v2", "d2|v1", "s|d1|v1"], keys

        # Identical duplicate cells (checkpoint + stream of one run) dedupe.
        dup = _write(tmp, "dup.jsonl",
                     _header() + "\n" + _cell("d1", "v1") + "\n" +
                     _cell("d1", "v1") + "\n")
        run(["--check", dup], out=io.StringIO())

        # Conflicting duplicates are refused.
        conflict = _write(tmp, "conflict.jsonl",
                          _header() + "\n" + _cell("d1", "v1", aopc=1.0) +
                          "\n" + _cell("d1", "v1", aopc=2.0) + "\n")
        _expect_raises(lambda: run(["--check", conflict],
                                   out=io.StringIO()),
                       "conflicting payloads")
        other = _write(tmp, "other_copy.jsonl",
                       _header() + "\n" + _cell("d1", "v1", aopc=2.0) + "\n")
        ok = _write(tmp, "ok_copy.jsonl",
                    _header() + "\n" + _cell("d1", "v1", aopc=1.0) + "\n")
        _expect_raises(lambda: run(["--check", ok, other],
                                   out=io.StringIO()),
                       "conflicts with an earlier shard")

        # Mixed experiments are refused.
        exp2 = _write(tmp, "exp2.jsonl",
                      _header("another") + "\n" + _cell("d9", "v9") + "\n")
        _expect_raises(lambda: run(["--check", a, exp2], out=io.StringIO()),
                       "does not match")

        # Mixed params are refused, across shards and inside one shard;
        # only the thread count may differ.
        mlp = _write(tmp, "mlp.jsonl",
                     _header(params=[("matcher", "mlp"), ("threads", "1")]) +
                     "\n" + _cell("d1", "v1") + "\n")
        logistic = _write(tmp, "logistic.jsonl",
                          _header(params=[("matcher", "logistic"),
                                          ("threads", "1")]) +
                          "\n" + _cell("d2", "v1") + "\n")
        _expect_raises(lambda: run(["--check", mlp, logistic],
                                   out=io.StringIO()),
                       "does not match")
        mixed = _write(tmp, "mixed.jsonl",
                       _header(params=[("matcher", "mlp")]) + "\n" +
                       _header(params=[("matcher", "logistic")]) + "\n")
        _expect_raises(lambda: run(["--check", mixed], out=io.StringIO()),
                       "mixes configurations")
        mlp4 = _write(tmp, "mlp4.jsonl",
                      _header(params=[("matcher", "mlp"), ("threads", "4")]) +
                      "\n" + _cell("d2", "v1") + "\n")
        out = io.StringIO()
        run(["--check", mlp, mlp4], out=out)
        assert "2 cell(s)" in out.getvalue(), out.getvalue()

        # Version mismatch is fatal anywhere.
        vbad = _write(tmp, "vbad.jsonl",
                      _header() + "\n" +
                      '{"v":999,"kind":"cell","dataset":"d","variant":"v"}'
                      + "\n")
        _expect_raises(lambda: run(["--check", vbad], out=io.StringIO()),
                       "unsupported schema version")

        # An unterminated trailing line (crash artifact) is dropped...
        torn = _write(tmp, "torn.jsonl",
                      _header() + "\n" + _cell("d1", "v1") + "\n" +
                      '{"v":1,"kind":"ce')
        out = io.StringIO()
        run(["--check", torn], out=out)
        assert "1 cell(s)" in out.getvalue(), out.getvalue()

        # ...but interior corruption is fatal.
        interior = _write(tmp, "interior.jsonl",
                          _header() + "\n" + "not json\n" +
                          _cell("d1", "v1") + "\n")
        _expect_raises(lambda: run(["--check", interior], out=io.StringIO()),
                       "not valid JSON")
    print("merge_cells: self-test OK")


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        self_test()
        return
    try:
        run(argv)
    except MergeError as e:
        print(f"merge_cells: FAIL: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
