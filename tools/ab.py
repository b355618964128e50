#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark between two revisions.

    python3 tools/ab.py --parent HEAD~1 --change HEAD
                        [--workloads spec_query,team_checkin] [--pairs 10]
                        [--seed 1] [--trace 0|1] [--work-dir .bench_build/ab]

Run from the repository root. Each revision is exported with
`git archive` into its own tree under the work directory (the special
revision WORKTREE copies the current checkout, uncommitted edits
included; nothing is registered in .git), and built with the perfbench
CMake package of that tree, by that tree's own `perfbench/run.py`,
before any run. Then, per workload, N pairs of runs
alternate which revision goes first: pair 1 runs parent then change,
pair 2 change then parent, and so on. Every run lasts the benchmark's
own `run_seconds` from BENCHMARK.json.

Per metric the report gives both medians and interquartile ranges, the
change/parent ratio of the medians and the number of pairs the change
won. A ratio worse than the metric's BENCHMARK.json bound is flagged
BOUND; a change whose median beats the parent's by more than the
parent's IQR is marked CLEAR. The per-session set-up times each run
prints in its environment line (`setup_s_each`) follow the table.
Exit status: 0 when every run was correct and no bound was crossed,
1 otherwise.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


# --- Statistics ---------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list (q in [0, 1])."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def iqr(values):
    return quantile(values, 0.75) - quantile(values, 0.25)


def ratio(change, parent):
    """change/parent of the medians; None when the parent median is 0."""
    base = median(parent)
    return None if base == 0 else median(change) / base


def wins(pairs, better):
    """Pairs (parent, change) in which the change is strictly better."""
    if better == "lower":
        return sum(1 for p, c in pairs if c < p)
    return sum(1 for p, c in pairs if c > p)


def beyond_bound(r, better, bound):
    """True when ratio `r` is worse than the parent by more than `bound`."""
    if r is None or bound is None:
        return False
    return r > 1.0 + bound if better == "lower" else r < 1.0 - bound


def clear_gain(parent, change, better):
    """The change's median beats the parent's by more than the parent's
    interquartile range."""
    gap = median(parent) - median(change)
    if better != "lower":
        gap = -gap
    return gap > iqr(parent)


def run_order(pair_index):
    """Which side runs first in pair `pair_index` (0-based)."""
    return ("parent", "change") if pair_index % 2 == 0 else ("change", "parent")


# --- Runs ---------------------------------------------------------------------

def parse_output(stdout):
    """(env dict, result dict) from a perfbench run's standard output: the
    last line is the result, the line before it the environment."""
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    env = {}
    if len(lines) >= 2:
        try:
            env = json.loads(lines[-2]).get("env", {})
        except ValueError:
            env = {}
    return env, result


def export_tree(rev, dest):
    """Materializes revision `rev` (or the checkout, for WORKTREE) at
    `dest`, replacing what was there."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == WORKTREE:
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
        for rel in files.decode().split("\0"):
            src = os.path.join(ROOT, rel)
            if not rel or not os.path.isfile(src):
                continue
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
        return
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def build_side(tree, build):
    """Builds the tree's perfbench program with that tree's run.py, before
    any timed run; True on success. The build starts from an empty
    directory: `git archive` dates every file at its commit, so an
    incremental build could keep objects compiled from another tree."""
    if os.path.exists(build):
        shutil.rmtree(build)
    code = ("import sys; sys.path.insert(0, %r); import run; "
            "sys.exit(run.build() is None)" % os.path.join(tree, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    return subprocess.run([sys.executable, "-c", code], cwd=tree,
                          env=env).returncode == 0


def run_side(tree, build, workload, seed, seconds, trace):
    """One perfbench run of the tree at `tree`, built into `build`."""
    env = dict(os.environ, CARGO_TARGET_DIR=build)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    try:
        run_env, result = parse_output(proc.stdout)
    except ValueError:
        run_env, result = {}, {"correct": False, "attempted": 0,
                               "failed": 0, "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
    return run_env, result


# --- Report -------------------------------------------------------------------

def metric_specs(spec, trace):
    """name -> (better, bound) for the metrics a run at `trace` reports."""
    out = {}
    for m in spec.get("per_layer" if trace else "end_to_end", []):
        out[m["name"]] = (m.get("better", "lower"), m.get("bound"))
    return out


def report(workload, runs, specs):
    """Prints one workload's table; returns the names of metrics that
    crossed their bound. `runs` holds one {"parent", "change"} dict of
    (env, result) per pair."""
    print("\n== %s: %d pairs ==" % (workload, len(runs)))
    print("%-34s %12s %9s %12s %9s %7s %5s  %s" % (
        "metric", "parent p50", "IQR", "change p50", "IQR", "ratio",
        "wins", "flags"))
    crossed = []
    for name, (better, bound) in specs.items():
        pairs = []
        for pair in runs:
            p = pair["parent"][1].get("metrics", {}).get(name)
            c = pair["change"][1].get("metrics", {}).get(name)
            if p is not None and c is not None:
                pairs.append((p["value"], c["value"]))
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        r = ratio(change, parent)
        flags = []
        if beyond_bound(r, better, bound):
            flags.append("BOUND")
            crossed.append(name)
        if clear_gain(parent, change, better):
            flags.append("CLEAR")
        print("%-34s %12.4g %9.3g %12.4g %9.3g %7s %2d/%-2d  %s" % (
            name, median(parent), iqr(parent), median(change), iqr(change),
            "-" if r is None else "%.3f" % r, wins(pairs, better), len(pairs),
            " ".join(flags)))
    for side in ("parent", "change"):
        failed = sum(pair[side][1].get("failed", 0) for pair in runs)
        attempted = sum(pair[side][1].get("attempted", 0) for pair in runs)
        incorrect = sum(1 for pair in runs if not pair[side][1].get("correct"))
        print("%s: %d of %d ops failed, %d incorrect runs" % (
            side, failed, attempted, incorrect))
    for side in ("parent", "change"):
        print("%s setup_s_each per run:" % side)
        for i, pair in enumerate(runs):
            print("  pair %d: %s" % (i + 1,
                                     pair[side][0].get("setup_s_each", "-")))
    return crossed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workloads",
                        default="spec_query,spec_edit,team_checkin")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir",
                        default=os.path.join(ROOT, ".bench_build", "ab"))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = metric_specs(spec, args.trace)
    work = os.path.abspath(args.work_dir)
    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        tree = os.path.join(work, side, "tree")
        build = os.path.join(work, side, "build")
        print("ab: exporting and building %s (%s)" % (side, rev), flush=True)
        export_tree(rev, tree)
        if not build_side(tree, build):
            print("ab: build of %s failed" % side, file=sys.stderr)
            return 1
        sides[side] = (tree, build)

    crossed = []
    all_correct = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.pairs):
            pair = {}
            for side in run_order(i):
                tree, build = sides[side]
                print("ab: %s pair %d/%d %s" % (workload, i + 1, args.pairs,
                                                side), flush=True)
                pair[side] = run_side(tree, build, workload, args.seed,
                                      spec["run_seconds"], args.trace)
                all_correct = all_correct and pair[side][1].get("correct")
            runs.append(pair)
        crossed += ["%s/%s" % (workload, m)
                    for m in report(workload, runs, specs)]
    if crossed:
        print("\nab: beyond bound: " + ", ".join(crossed))
    if not all_correct:
        print("\nab: some runs were not correct")
    return 0 if all_correct and not crossed else 1


if __name__ == "__main__":
    sys.exit(main())
