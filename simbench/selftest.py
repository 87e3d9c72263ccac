#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Runs every workload of BENCHMARK.json through run.py, untraced and
traced, at a reduced instruction budget, and checks that every metric
BENCHMARK.json names is printed with its unit and that no simulation
failed.  Then plants a wrong expected fingerprint and checks that the
gate counts every simulation as failed.

Usage (from the root of a checkout):
  python3 simbench/selftest.py [--budget INSTRUCTIONS] [--seconds S]

With --budget 1000000 --seconds 40 it is the full benchmark on all
workloads in one command; expected.json's fingerprints then apply.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace, budget, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--budget", str(budget), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--budget", type=int, default=450_000)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        seeds = {w: e["seed"] for w, e in json.load(f).items()}
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, metrics in wanted.items():
            res = run(name, seeds[name], args.seconds, trace, args.budget)
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['failed']} of "
                                f"{res['attempted']} simulations failed")
            for m in metrics:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{name} trace={trace}: {m['name']} "
                                    "missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{name} trace={trace}: {m['name']} in "
                                    f"{got['unit']}, not {m['unit']}")
            extra = set(res["metrics"]) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{name} trace={trace}: unlisted metrics "
                                f"{sorted(extra)}")

    # The gate must fire: record a true fingerprint, falsify one field,
    # and expect every simulation to fail against it.
    name = "dss-1node"
    planted = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "selftest-expected.json")
    if os.path.exists(planted):
        os.remove(planted)
    run(name, seeds[name], args.seconds, 0, args.budget,
        "--record-expected", planted)
    with open(planted) as f:
        store = json.load(f)
    store[name]["fingerprint"]["instructions"] += 1
    with open(planted, "w") as f:
        json.dump(store, f)
    res = run(name, seeds[name], args.seconds, 0, args.budget,
              "--expected", planted)
    os.remove(planted)
    if res["correct"] or res["failed"] != res["attempted"]:
        problems.append(f"planted fingerprint: {res['failed']} of "
                        f"{res['attempted']} failed, expected all")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
