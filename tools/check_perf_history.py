#!/usr/bin/env python3
"""Gate simulator speed on simbench against the previous CI run.

Reads one result line per workload: the last line of standard output of
``python3 simbench/run.py --trace 0``, saved as ``<workload>.json`` in
the ``--current`` directory.  The gate fails when a line is incorrect
(``"correct": false`` or ``failed > 0``: a simulation did not match its
fingerprint), or when its ``sim_mips_ref`` (simulated instructions per
host second, with the host's speed divided out) is more than
``MAX_REGRESSION`` (15%) below the same workload's line in the
``--history`` directory, the lines the previous run accepted.

``setup_s`` and ``peak_rss_mb`` are deliberately not gated: single runs
of ``setup_s`` spread wider than a bound that would catch anything.

On success the current lines are copied into the history directory, so
the CI cache archives the newest accepted baseline.  A workload with no
history, or an unreadable one, passes and seeds it.

Exit status: 0 ok / history seeded, 1 incorrect or slower, 2 usage or
bad input.
"""

import argparse
import json
import os
import shutil
import sys

METRIC = "sim_mips_ref"
# Fractional drop of METRIC that fails the gate.
MAX_REGRESSION = 0.15

# Everything a hostile line can throw short of a crash: I/O failures,
# malformed JSON or the wrong shape (ValueError covers JSONDecodeError
# and UnicodeDecodeError), and missing or non-numeric values.
LINE_ERRORS = (OSError, ValueError, TypeError, KeyError)


def load_line(path):
    """One simbench result line as (correct, sim_mips_ref or None)."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.loads(f.read())
    if not isinstance(doc, dict) or not isinstance(doc.get("correct"), bool):
        raise ValueError(f"{path}: not a simbench result line")
    correct = doc["correct"] and int(doc["failed"]) == 0
    if not correct:
        return False, None
    mips = float(doc["metrics"][METRIC]["value"])
    if not mips > 0:
        raise ValueError(f"{path}: {METRIC} is {mips}")
    return True, mips


def save_history(current_path, history_path):
    """Copy an accepted line over its history file; never raise.

    A read-only cache directory or a full disk must not turn a passing
    gate into a failure: the next run simply sees no history and passes,
    which is the designed cold-start behavior.
    """
    try:
        os.makedirs(os.path.dirname(history_path), exist_ok=True)
        shutil.copyfile(current_path, history_path)
    except OSError as e:
        print(f"check_perf_history: could not save history at "
              f"{history_path} ({e}); next run starts cold",
              file=sys.stderr)


def gate(current_dir, history_dir):
    """The CI gate: returns the process exit status."""
    try:
        names = sorted(n for n in os.listdir(current_dir)
                       if n.endswith(".json"))
        if not names:
            raise ValueError(f"{current_dir}: no <workload>.json lines")
        current = {n[:-5]: load_line(os.path.join(current_dir, n))
                   for n in names}
    except LINE_ERRORS as e:
        print(f"check_perf_history: cannot read current results: {e}",
              file=sys.stderr)
        return 2

    bad, ok = [], []
    for workload, (correct, now) in current.items():
        if not correct:
            bad.append(f"{workload}: simbench reports incorrect results")
            continue
        history_path = os.path.join(history_dir, workload + ".json")
        if not os.path.exists(history_path):
            ok.append(f"{workload}: {METRIC} {now:.4g} Minstr/s "
                      "(no history; seeding it)")
            continue
        try:
            prev_correct, prev = load_line(history_path)
            if not prev_correct:
                raise ValueError(f"{history_path}: an incorrect run")
        except LINE_ERRORS as e:
            # A corrupt cache entry must not wedge CI forever: re-seed.
            print(f"check_perf_history: unreadable history ({e}); "
                  "re-seeding", file=sys.stderr)
            continue
        drop = 1.0 - now / prev
        line = (f"{workload}: {METRIC} {prev:.4g} -> {now:.4g} Minstr/s "
                f"({-drop:+.1%}, limit -{MAX_REGRESSION:.0%})")
        (bad if drop > MAX_REGRESSION else ok).append(line)

    if bad:
        for line in bad:
            print(f"check_perf_history: FAIL {line}", file=sys.stderr)
        print(f"check_perf_history: {len(bad)} workload(s) failed; history "
              f"at {history_dir} left unchanged", file=sys.stderr)
        return 1
    for line in ok:
        print(f"check_perf_history: ok {line}")
    for workload in current:
        save_history(os.path.join(current_dir, workload + ".json"),
                     os.path.join(history_dir, workload + ".json"))
    return 0


def self_test():
    import tempfile

    def line(mips, failed=0):
        return json.dumps({"correct": failed == 0, "attempted": 3,
                           "failed": failed,
                           "metrics": {METRIC: {"value": mips,
                                                "unit": "Minstr/s"}}})

    def write(path, text):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    with tempfile.TemporaryDirectory() as d:
        cur = os.path.join(d, "cur")
        hist = os.path.join(d, "hist")
        hist_line = os.path.join(hist, "oltp-4node.json")

        def run(current, history=None):
            shutil.rmtree(cur, ignore_errors=True)
            shutil.rmtree(hist, ignore_errors=True)
            write(os.path.join(cur, "oltp-4node.json"), current)
            if history is not None:
                write(hist_line, history)
            return gate(cur, hist)

        # 10% slower passes and becomes the history; faster passes.
        assert run(line(0.9), line(1.0)) == 0
        assert load_line(hist_line) == (True, 0.9)
        assert run(line(1.5), line(1.0)) == 0
        # 20% slower fails and leaves the history alone.
        assert run(line(0.8), line(1.0)) == 1
        assert load_line(hist_line) == (True, 1.0)
        # An incorrect result fails even with no history to compare to.
        assert run(json.dumps({"correct": False, "attempted": 1,
                               "failed": 1, "metrics": {}})) == 1
        assert run(line(1.0, failed=1)) == 1
        assert not os.path.exists(hist_line)

        # Missing, truncated or dbsim-bench-format history: passes and
        # (re-)seeds it with a notice, never a stack trace.
        for stale in (None, '{"correct": true, "fail',
                      json.dumps({"schema": "dbsim-bench-v3",
                                  "results": [{"label": "OLTP-4node"}]})):
            assert run(line(1.0), stale) == 0
            assert load_line(hist_line) == (True, 1.0)

        # A directory standing where the history file should be defeats
        # both the read and the re-seeding copy: a notice, not a crash.
        run(line(1.0))
        os.remove(hist_line)
        os.makedirs(os.path.join(hist_line, "x"))
        assert gate(cur, hist) == 0

        # An empty or non-JSON current line is a hard input error.
        for broken in ("", "not json"):
            assert run(broken) == 2

    print("check_perf_history: self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", default="simbench-results",
                    help="directory of this run's <workload>.json lines")
    ap.add_argument("--history", default="simbench-history",
                    help="directory of the previous run's accepted lines")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in checks and exit")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return 0
    return gate(args.current, args.history)


if __name__ == "__main__":
    sys.exit(main())
