#!/usr/bin/env python3
"""Simulator benchmark: builds dbsim from source, runs one workload for a
host-time budget and prints its metrics.

Usage (from the root of a checkout):
  python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      [--budget INSTRUCTIONS] [--expected PATH] [--record-expected PATH]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every simulation is checked
against the expected fingerprint (expected.json) at the default seed and
budget, and against the invocation's first simulation otherwise.  See
NOTES.md for what each metric measures and why.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_BUDGET = 1_000_000  # keep in step with kDefaultBudget in simbench.cpp
WORKLOADS = ("oltp-4node", "dss-1node", "oltp-4node-sc")
RUN_LIMIT_S = 170  # a run must end within 180 s once built
# Host seconds of one reference pass on the nominal host: the host-speed
# normalized figures read as if measured on a host this fast.
REFERENCE_S = 0.2


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("simbench: no simulator sources at src/; "
                         "run from the root of a full checkout")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "simbench")
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "simbench")


def tail_percentile(values, higher_is_better):
    """The highest percentile, on the worse side, that has at least ten
    samples beyond it, as (percentile, value); None when too few."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")
            return p, q[100 - p - 1] if higher_is_better else q[p - 1]
    return None


def summary(name, unit, values, higher_is_better=False):
    line = f"  {name:<32} median {statistics.median(values):.6g} {unit}"
    tail = tail_percentile(values, higher_is_better)
    if tail:
        line += f", p{tail[0]} {tail[1]:.6g}"
    else:
        line += ", no tail percentile with 10 samples beyond it"
    log(line + f" (n={len(values)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    ap.add_argument("--record-expected", metavar="PATH",
                    help="write this run's fingerprint as the workload's "
                         "expected one")
    args = ap.parse_args()

    binary = build()
    started = time.monotonic()
    env = {k: v for k, v in os.environ.items() if not k.startswith("DBSIM_")}
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--budget", str(args.budget)],
            stdout=subprocess.PIPE, text=True, env=env,
            timeout=max(10, RUN_LIMIT_S - args.seconds))
        stdout, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:  # a hang counts as a failure
        stdout, code = e.stdout or "", "timeout"
        if isinstance(stdout, bytes):
            stdout = stdout.decode()
    lines = []
    for raw in stdout.splitlines():
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            break  # a crash mid-line; the exit code reports it
    by_type = {}
    for rec in lines:
        by_type.setdefault(rec["type"], []).append(rec)
    runs = by_type.get("run", [])
    traced = by_type.get("traced", [])
    sims = runs + traced

    # Correctness gate.
    with open(args.expected) as f:
        expected = json.load(f).get(args.workload)
    golden = (expected and expected["seed"] == args.seed
              and expected["budget"] == args.budget)
    reference = expected["fingerprint"] if golden else (
        sims[0]["fingerprint"] if sims else None)
    failed = sum(1 for s in sims if s["fingerprint"] != reference)
    attempted = len(sims)
    crashed = code != 0 or "end" not in by_type
    if crashed:
        log(f"simbench: simulator ended with {code}")
        attempted += 1
        failed += 1
    if args.record_expected and sims and not crashed:
        store = {}
        if os.path.exists(args.record_expected):
            with open(args.record_expected) as f:
                store = json.load(f)
        store[args.workload] = {"seed": args.seed, "budget": args.budget,
                                "fingerprint": sims[0]["fingerprint"]}
        with open(args.record_expected, "w") as f:
            json.dump(store, f, indent=2, sort_keys=True)
            f.write("\n")
    log(f"simbench {args.workload} seed={args.seed} budget={args.budget} "
        f"trace={args.trace}: {attempted} simulations, {failed} failed, "
        f"gate={'expected.json' if golden else 'repeat-equality'}, "
        f"{time.monotonic() - started:.1f} s")

    # Host figures stand even for a simulation the gate failed; the
    # result is marked incorrect instead.  A crash before the run ended
    # leaves nothing to report.
    metrics = {}
    if not crashed and args.trace == 0:
        metrics = end_to_end(lines)
    elif not crashed:
        metrics = per_layer(runs, traced, by_type["replay"][0],
                            by_type["reference"])
    log(f"  {'fail_frac':<32} {failed / attempted:.6g} "
        f"(failed {failed} of {attempted} simulations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def metric(value, unit):
    return {"value": value, "unit": unit}


def ns_per_core_cycle(run):
    return run["run_s"] * 1e9 / (run["now"] * run["cores"])


def rounds(lines):
    """Splits an untraced run into rounds of (simulation, its set-up
    samples, host-speed factor).  The factor is REFERENCE_S over the mean
    of the reference passes on both sides of the round (only the one
    after it, for the first round); a host time multiplied by it reads
    as on the nominal host."""
    out, setups, sim, before = [], [], None, None
    for rec in lines:
        if rec["type"] == "setup":
            setups.append(rec["setup_s"])
        elif rec["type"] == "run":
            sim, setups = (rec, setups + [rec["setup_s"]]), []
        elif rec["type"] == "reference" and sim:
            after = rec["ref_s"]
            ref = after if before is None else (before + after) / 2
            out.append((*sim, REFERENCE_S / ref))
            sim, before = None, after
    return out


def end_to_end(lines):
    rs = rounds(lines)
    runs = [r for r, _, _ in rs]
    mips = [r["retired"] / r["run_s"] / 1e6 for r in runs]
    mips_ref = [r["retired"] / (r["run_s"] * f) / 1e6 for r, _, f in rs]
    ns_cc = [ns_per_core_cycle(r) for r in runs]
    setup = [s * f for _, setups, f in rs for s in setups]
    # Throughput over the whole run: simulated instructions over the
    # summed normalized host time, so every host second weighs the same.
    mips_ref_all = (sum(r["retired"] for r in runs)
                    / sum(r["run_s"] * f for r, _, f in rs) / 1e6)
    # Memory of a process that has run one simulation; later repeats
    # only add the allocator's reuse pattern.
    rss = runs[0]["peak_rss_kb"] / 1024
    log(f"  {'sim_mips_ref':<32} {mips_ref_all:.6g} Minstr/s over the run")
    summary("sim_mips_ref per simulation", "Minstr/s", mips_ref,
            higher_is_better=True)
    summary("sim_mips (wall clock)", "Minstr/s", mips, higher_is_better=True)
    summary("host_ns_per_core_cycle", "ns", ns_cc)
    summary("setup_s", "s", setup)
    summary("reference pass", "s", [REFERENCE_S / f for _, _, f in rs])
    log(f"  {'peak_rss_mb':<32} {rss:.6g} MB")
    return {
        "sim_mips_ref": metric(mips_ref_all, "Minstr/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def per_layer(runs, traced, rp, refs):
    t = traced[-1]  # simulated counts repeat exactly across traced runs
    med = lambda key: statistics.median(r[key] for r in traced)
    run_s = med("run_s")

    # Memory and coherence host time, priced per call by the replay and
    # scaled to the calls the traced run made.  Node counters cover the
    # post-warmup window; the share covers the whole run, so they are
    # scaled by all retired instructions over the window's.
    whole_run = t["retired"] / t["window_instructions"]
    insitu_txn = t["fabric_misses"] + t["upgrades"] + t["flushes"]
    insitu_access = (t["l1i_fetches"] + t["l1d_accesses"]) * whole_run
    mem_accepted = rp["mem_calls"] - rp["refusals"]
    ns_per_access = rp["mem_self_s"] * 1e9 / max(1, mem_accepted)
    ns_per_txn = rp["txn_self_s"] * 1e9 / max(1, rp["txn_calls"])
    mem_s = max(0.0, insitu_access - insitu_txn) * ns_per_access * 1e-9
    coh_s = insitu_txn * ns_per_txn * 1e-9
    wl_s = med("workload_self_s")
    cpu_s = run_s - wl_s - mem_s - coh_s

    phases = [ms for r in traced for ms in r["phase_ms"]]
    phase_q = statistics.quantiles(phases, n=100, method="inclusive")
    overhead = statistics.median(
        tr["run_s"] / un["run_s"] - 1 for un, tr in zip(runs, traced))

    m = {
        "workload.records": metric(t["records"], "count"),
        "workload.self_s": metric(wl_s, "s"),
        "workload.ns_per_record": metric(wl_s * 1e9 / t["records"], "ns"),
        "workload.share": metric(wl_s / run_s, "fraction"),
        "memory.l1i_fetches": metric(t["l1i_fetches"], "count"),
        "memory.l1i_misses": metric(t["l1i_misses"], "count"),
        "memory.l1d_accesses": metric(t["l1d_accesses"], "count"),
        "memory.l1d_misses": metric(t["l1d_misses"], "count"),
        "memory.l2_accesses": metric(t["l2_accesses"], "count"),
        "memory.l2_misses": metric(t["l2_misses"], "count"),
        "memory.mshr_full_stalls": metric(t["mshr_full_stalls"], "count"),
        "memory.dtlb_misses": metric(t["dtlb_misses"], "count"),
        "memory.ns_per_access": metric(ns_per_access, "ns"),
        "memory.refusals_per_access": metric(
            rp["refusals"] / max(1, rp["accepted"]), "ratio"),
        "memory.est_share": metric(mem_s / run_s, "fraction"),
        "coherence.transactions": metric(insitu_txn, "count"),
        "coherence.dirty_misses": metric(t["dirty_misses"], "count"),
        "coherence.invalidations": metric(t["invalidations"], "count"),
        "coherence.upgrades": metric(t["upgrades"], "count"),
        "coherence.writebacks": metric(t["writebacks"], "count"),
        "coherence.dir_entries": metric(t["dir_entries"], "count"),
        "interconnect.link_wait_cycles": metric(t["link_wait_cycles"],
                                                "cycles"),
        "coherence.ns_per_txn": metric(ns_per_txn, "ns"),
        "coherence.est_share": metric(coh_s / run_s, "fraction"),
        "cpu.instructions": metric(t["window_instructions"], "count"),
        "cpu.core_cycles": metric(t["window_cycles"] * t["cores"], "cycles"),
        "cpu.ipc": metric(t["ipc"], "instr/cycle"),
        "cpu.lock_spin_retries": metric(t["lock_spin_retries"], "count"),
        "cpu.lock_yields": metric(t["lock_yields"], "count"),
        "cpu.context_switches": metric(t["context_switches"], "count"),
        "cpu.spec_load_violations": metric(t["spec_load_violations"],
                                           "count"),
        "cpu.branch_mispredicts": metric(t["branch_mispredicts"], "count"),
        "cpu.self_s": metric(cpu_s, "s"),
        "cpu.share": metric(cpu_s / run_s, "fraction"),
        "sim.setup.system_s": metric(med("system_s"), "s"),
        "sim.setup.workload_s": metric(med("workload_s"), "s"),
        "sim.ms_per_10k_records.p50": metric(phase_q[49], "ms"),
        "sim.ms_per_10k_records.p95": metric(phase_q[94], "ms"),
        "sim.ms_per_10k_records.samples": metric(len(phases), "count"),
        "host_ns_per_core_cycle": metric(
            statistics.median(ns_per_core_cycle(r) for r in runs), "ns"),
        "sim_mips": metric(sum(r["retired"] for r in runs)
                           / sum(r["run_s"] for r in runs) / 1e6, "Minstr/s"),
        "host.ref_s": metric(statistics.median(
            r["ref_s"] for r in refs), "s"),
        "trace.run_s": metric(run_s, "s"),
        "trace.overhead_frac": metric(overhead, "fraction"),
    }
    for name, v in m.items():
        log(f"  {name:<32} {v['value']:.6g} {v['unit']}")
    log(f"  traced runs: {len(traced)}; replay: {rp['accepted']} accesses, "
        f"{rp['txn_calls']} fabric transactions in {rp['replay_s']:.3f} s; "
        f"shares workload+memory+coherence+cpu = "
        f"{(wl_s + mem_s + coh_s + cpu_s) / run_s:.6g}")
    return m


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"simbench: {e}")
        sys.exit(1)
