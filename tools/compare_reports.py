#!/usr/bin/env python3
"""Field-exact comparison of two dbsim-bench JSON reports.

Used by the CI fault-tolerance job to assert that an interrupted sweep
resumed with --resume produces the same report as an uninterrupted run.
Host-timing fields (wall_seconds, sim_instructions_per_host_second) are
scrubbed before comparing -- they legitimately differ between runs; all
simulated results (cycles, instructions, IPC, breakdowns, miss rates,
coherence counters) must match exactly.

Usage: compare_reports.py REFERENCE.json CANDIDATE.json [--ignore KEY]...
Exit status 0 when equivalent, 1 with a per-path diff otherwise (the
first 50 differing paths are printed; the summary counts all of them).
"""

import argparse
import json
import sys

DEFAULT_IGNORED = ("wall_seconds", "sim_instructions_per_host_second")
MAX_PRINTED = 50


def scrub(node, ignored):
    """Drop ignored keys recursively."""
    if isinstance(node, dict):
        return {
            k: scrub(v, ignored)
            for k, v in node.items()
            if k not in ignored
        }
    if isinstance(node, list):
        return [scrub(v, ignored) for v in node]
    return node


def diff(a, b, path, out):
    """Append every per-path difference between a and b to `out`."""
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != "
                   f"{type(b).__name__}")
    elif isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append(f"{path}.{k}: only in candidate")
            elif k not in b:
                out.append(f"{path}.{k}: only in reference")
            else:
                diff(a[k], b[k], f"{path}.{k}", out)
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("reference")
    ap.add_argument("candidate")
    ap.add_argument("--ignore", action="append", default=[],
                    help="additional JSON keys to scrub before comparing")
    args = ap.parse_args()

    ignored = set(DEFAULT_IGNORED) | set(args.ignore)
    docs = []
    for path in (args.reference, args.candidate):
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(scrub(json.load(f), ignored))
        except (OSError, json.JSONDecodeError) as e:
            print(f"compare_reports: {path}: {e}", file=sys.stderr)
            return 2

    findings = []
    diff(docs[0], docs[1], "$", findings)
    for f in findings[:MAX_PRINTED]:
        print(f)
    if len(findings) > MAX_PRINTED:
        print(f"... and {len(findings) - MAX_PRINTED} more")
    if findings:
        print(f"compare_reports: {len(findings)} difference(s) between "
              f"{args.reference} and {args.candidate}")
        return 1
    print(f"compare_reports: {args.reference} == {args.candidate} "
          f"(ignoring {', '.join(sorted(ignored))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
