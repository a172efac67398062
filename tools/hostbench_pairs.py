#!/usr/bin/env python3
"""Compare host time of two checkouts with alternating hostbench runs.

A host-time claim needs paired runs: a shared host's speed can drift
by tens of percent over minutes, so a parent run and a change run are
taken back to back, alternating which goes first, and the change is
judged by how many pairs it wins and by how far its median moves
compared with the spread of the parent's runs.

Usage:
    tools/hostbench_pairs.py --parent DIR --change DIR [options]

Options:
    --workloads LIST  comma-separated workloads (default: every
                      workload in the change's BENCHMARK.json)
    --seeds A-B       inclusive seed range, one pair per seed
                      (default: 1-10)
    --seconds S       seconds per run (default: 30)
    --trace 0|1       pass --trace to hostbench/run.py (default: 0);
                      with 1, compare the per-layer metrics instead
    --parent-build D  CARGO_TARGET_DIR of the parent's runs
                      (default: DIR/.bench_build of --parent)
    --change-build D  likewise for the change

Each run is `python3 hostbench/run.py --workload W --seed N --seconds
S --trace T` in its checkout, with its own CARGO_TARGET_DIR, so the
two trees never share a build. For every workload and every end-to-end
metric of BENCHMARK.json the script prints the parent's and the
change's median with quartiles, the median ratio, the change's win
count and a verdict:

    gain      the change won at least 9 of 10 pairs (scaled to the
              pair count) and its median beats the parent's by more
              than the parent's interquartile range
    worse     the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
    -         neither

A traced run reports the per-layer metrics of BENCHMARK.json, not the
end-to-end ones. With --trace 1 the script prints each per-layer
metric the same way but gives no verdict, since those metrics have no
bound, and leaves out the ones that read 0 on every run.

It exits 1 when any pair's digest lines differ (the change simulated
something else), when a run failed or reported failed operations, or
when an end-to-end metric is worse beyond its bound; otherwise 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, build_dir, workload, seed, seconds, trace):
    """One hostbench run; returns (metrics, digest, failure text)."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(build_dir))
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    digest = next((l for l in lines if l.startswith("digest ")), None)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0 or result is None:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        return None, digest, "exit %d\n%s" % (proc.returncode, tail)
    if not result.get("correct") or result.get("failed", 0) > 0:
        return None, digest, "%s of %s operations failed" % (
            result.get("failed"), result.get("attempted"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, digest, None


def quartiles(values):
    """(q1, median, q3); Python's exclusive method, as hostbench uses."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(metric, parent, change, wins, pairs):
    """Verdict of one metric over its pairs (see the module doc)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    higher = metric["better"] == "higher"
    gain = cm - pm if higher else pm - cm
    if wins >= 0.9 * pairs and gain > p3 - p1:
        return "gain"
    bound = metric.get("bound")
    if bound is not None and pm != 0 and -gain / abs(pm) > bound:
        return "worse"
    return "-"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--parent-build")
    parser.add_argument("--change-build")
    args = parser.parse_args()

    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    sides = {
        "parent": (args.parent, args.parent_build or
                   os.path.join(args.parent, ".bench_build")),
        "change": (args.change, args.change_build or
                   os.path.join(args.change, ".bench_build")),
    }

    problems = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else \
                ["change", "parent"]
            digests, results = {}, {}
            for side in order:
                checkout, build = sides[side]
                metrics, digest, failure = run_once(
                    checkout, build, workload, seed, args.seconds,
                    args.trace)
                digests[side] = digest
                if failure:
                    problems.append("%s seed %d %s: %s"
                                    % (workload, seed, side, failure))
                else:
                    results[side] = metrics
            # A pair counts only when both of its runs succeeded.
            if len(results) == 2:
                for side, metrics in results.items():
                    runs[side].append(metrics)
            if digests["parent"] != digests["change"]:
                problems.append("%s seed %d: digest %s (parent) vs %s "
                                "(change)" % (workload, seed,
                                              digests["parent"],
                                              digests["change"]))
            sys.stderr.write("%s seed %d done\n" % (workload, seed))
        pairs = len(runs["parent"])
        if pairs == 0:
            continue
        print("%s: %d pairs, seeds %s, %d s" % (workload, pairs,
                                                args.seeds, args.seconds))
        width = 31 if args.trace else 15
        print(("  %-*s %-28s %-28s %7s %6s  %s" % (
            width, "metric", "parent median (q1-q3)",
            "change median (q1-q3)", "ratio", "wins",
            "" if args.trace else "verdict")).rstrip())
        for metric in bench["per_layer" if args.trace else "end_to_end"]:
            name = metric["name"]
            parent = [r.get(name, 0) for r in runs["parent"]]
            change = [r.get(name, 0) for r in runs["change"]]
            if args.trace and not any(parent + change):
                continue
            higher = metric["better"] == "higher"
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(parent, change))
            verdict = ""
            if not args.trace:
                verdict = judge(metric, parent, change, wins, pairs)
            if verdict == "worse":
                problems.append("%s %s: worse beyond its bound"
                                % (workload, name))
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(("  %-*s %-28s %-28s %7.3f %3d/%-2d  %s" % (
                width, name, "%.4g (%.4g-%.4g)" % (pm, p1, p3),
                "%.4g (%.4g-%.4g)" % (cm, c1, c3),
                cm / pm if pm else float("nan"), wins, pairs,
                verdict)).rstrip())
    for problem in problems:
        print("PROBLEM: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
