#!/usr/bin/env python3
"""Check that two BENCH_*.json artifacts differ only in host fields.

Two runs of one harness on the same inputs must simulate the same
numbers, whatever the thread count, the build or the machine. Only
host measurements may differ: ``host_wall_ms`` at any depth, and the
top-level ``host``, ``threads``, ``git_sha`` and ``build_flags`` stamps.
This script drops those, compares the rest exactly, prints the first
differing dotted paths, and exits 1 on any difference (2 on bad
usage or unreadable input).

With --digest, it instead prints a JSON object that maps each
artifact's file name to the sha256 of its host-stripped content, keys
sorted, so one artifact set can be checked against a committed golden
file (perf/golden.json) with diff:

  scripts/diff_artifacts.py --digest BENCH_out/BENCH_*.json > golden.json
  diff -u perf/golden.json golden.json

Usage: scripts/diff_artifacts.py A.json B.json
       scripts/diff_artifacts.py --digest A.json [B.json ...]
"""

import hashlib
import json
import os
import sys

HOST_ANYWHERE = {"host_wall_ms"}
HOST_TOP_LEVEL = {"host", "threads", "git_sha", "build_flags"}
# Differences printed before the summary line.
SHOWN = 20


def strip(node, top=False):
    """The JSON value ``node`` without its host-only fields."""
    if isinstance(node, dict):
        return {
            key: strip(value)
            for key, value in node.items()
            if key not in HOST_ANYWHERE
            and not (top and key in HOST_TOP_LEVEL)
        }
    if isinstance(node, list):
        return [strip(value) for value in node]
    return node


def join(path, key):
    return f"{path}.{key}" if path else str(key)


def differences(a, b, path=""):
    """Yield (dotted path, description) for every difference."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a.keys() | b.keys():
            where = join(path, key)
            if key not in b:
                yield where, "only in A"
            elif key not in a:
                yield where, "only in B"
            else:
                yield from differences(a[key], b[key], where)
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
        if len(a) != len(b):
            yield path, f"length {len(a)} != {len(b)}"
    elif type(a) is not type(b) or a != b:
        yield path or "(top)", f"{json.dumps(a)} != {json.dumps(b)}"


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def digest(doc):
    """sha256 of ``doc`` without its host fields, in canonical form."""
    canonical = json.dumps(strip(doc, top=True), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def digests(paths):
    """{file name: digest} of every artifact; exits 2 on a name clash."""
    out = {}
    for path in paths:
        name = os.path.basename(path)
        if name in out:
            print(f"error: two artifacts named {name}", file=sys.stderr)
            sys.exit(2)
        out[name] = digest(load(path))
    return out


def main(argv):
    if argv[:1] == ["--digest"] and len(argv) > 1:
        print(json.dumps(digests(argv[1:]), indent=2, sort_keys=True))
        return 0
    if len(argv) != 2 or "--digest" in argv:
        print("usage: scripts/diff_artifacts.py A.json B.json\n"
              "       scripts/diff_artifacts.py --digest A.json...",
              file=sys.stderr)
        return 2
    a, b = argv
    diffs = sorted(differences(strip(load(a), top=True),
                               strip(load(b), top=True)))
    for where, what in diffs[:SHOWN]:
        print(f"{where}: {what}")
    if len(diffs) > SHOWN:
        print(f"... and {len(diffs) - SHOWN} more")
    if diffs:
        print(f"{a} and {b}: {len(diffs)} differences")
        return 1
    print(f"{a} and {b}: identical outside host fields")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
