#!/usr/bin/env python3
"""Paired A/B runs of two perfbench binaries on one workload.

    python3 scripts/perf_pairs.py --parent <perfbench> --change <perfbench> \\
        --workload oltp-tenants --seeds 531,532,533 --seconds 20

Each seed is one pair: both binaries run it back to back with tracing off,
and the side that runs first alternates from pair to pair. For every
end-to-end metric listed in BENCHMARK.json the script prints each side's
median and quartiles, the change's wins, ties and losses, and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  gain-void   a gain, but the change failed a larger share of operations
              than the parent, so it does not count
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  within      none of the above: no worse than the bound

It also prints the failed share of operations per side. It exits 1 when a
run fails its verification, exits non-zero or times out (the pairs finished
before it are still reported), when the change fails a larger share of
operations than the parent, or when a metric reads "worse". BENCHMARK.json
is only read. Build a binary with `python3 perfbench/run.py` in each
checkout (it lands in $CARGO_TARGET_DIR/perfbench/perfbench, default
.bench_build/perfbench/perfbench).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_WIN_SHARE = 0.9


def run_timeout_s(seconds):
    """Wall-clock limit for one run: the measured window plus setup slack."""
    return 3 * seconds + 60


def run_once(binary, workload, seed, seconds):
    """One untraced run; returns (parsed result line, None) or (None, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=run_timeout_s(seconds))
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % run_timeout_s(seconds)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return None, "exited with code %d" % proc.returncode
    return json.loads(lines[-1]), None


def quartiles(values):
    """(q1, median, q3) of a sample, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def failed_share(runs):
    """Failed operations over attempted ones, summed across runs."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(metric, parent, change, more_failures=False):
    """Compares per-pair values of one metric; returns a row dict.

    `more_failures` says the change failed a larger share of operations than
    the parent: its gains are then void.
    """
    lower = metric["better"] == "lower"
    wins = ties = 0
    for p, c in zip(parent, change):
        if c == p:
            ties += 1
        elif (c < p) == lower:
            wins += 1
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    iqr = pq3 - pq1
    # Relative change of the medians, signed so that positive is worse.
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / pmed if pmed else 0.0
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    spread = iqr / pmed if pmed else 0.0
    if (wins >= GAIN_WIN_SHARE * len(parent) and abs(cmed - pmed) > iqr
            and worse_by < 0):
        result = "gain-void" if more_failures else "gain"
    elif worse_by > metric["bound"]:
        result = "worse"
    elif spread > metric["bound"] and not all_better:
        result = "unresolved"
    else:
        result = "within"
    return {"metric": metric["name"], "unit": metric["unit"],
            "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "wins": wins, "ties": ties, "losses": len(parent) - wins - ties,
            "delta": -worse_by, "verdict": result}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="perfbench binary of the parent")
    ap.add_argument("--change", required=True, help="perfbench binary of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seed list")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    ok = True
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            r, err = run_once(sides[side], args.workload, seed, args.seconds)
            if err:
                print("seed %d: %s run %s" % (seed, side, err))
                break
            if r.get("correct") is not True:
                print("seed %d: %s run failed verification" % (seed, side))
                ok = False
            pair[side] = r
        if len(pair) < 2:
            ok = False
            break
        for side in pair:
            results[side].append(pair[side])
        print("pair %d/%d (seed %d, %s first) done" % (i + 1, len(seeds), seed, order[0]),
              flush=True)
    if not results["parent"]:
        print("no pair completed")
        return 1

    print()
    print("workload %s, %d pairs, --seconds %d"
          % (args.workload, len(results["parent"]), args.seconds))
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in results[side])
        failed = sum(r["failed"] for r in results[side])
        print("%-6s failed %d of %d operations (%.4f%%)"
              % (side, failed, attempted, 100.0 * failed_share(results[side])))
    more_failures = failed_share(results["change"]) > failed_share(results["parent"])
    if more_failures:
        print("the change fails a larger share of operations than the parent")
        ok = False
    header = "%-18s %-5s %28s %28s %9s %4s %4s %4s  %s" % (
        "metric", "unit", "parent q1/med/q3", "change q1/med/q3", "delta",
        "win", "tie", "loss", "verdict")
    print(header)
    for m in metrics:
        parent = [r["metrics"][m["name"]]["value"] for r in results["parent"]]
        change = [r["metrics"][m["name"]]["value"] for r in results["change"]]
        row = verdict(m, parent, change, more_failures)
        if row["verdict"] == "worse":
            ok = False
        print("%-18s %-5s %28s %28s %+8.1f%% %4d %4d %4d  %s" % (
            row["metric"], row["unit"],
            "%.4g/%.4g/%.4g" % row["parent"], "%.4g/%.4g/%.4g" % row["change"],
            100.0 * row["delta"], row["wins"], row["ties"], row["losses"],
            row["verdict"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
