#!/usr/bin/env python3
"""Paired A/B of perfbench's end-to-end metrics: a parent revision
against the working tree.

    python scripts/perfbench_ab.py --parent HEAD~1 --workload oltp_read \\
        --seed 2011 --pairs 10 --seconds 10

The parent is checked out as a temporary ``git worktree`` outside the
repository, both trees are byte-compiled, and ``perfbench/run.py
--workload W --seed S --seconds T --trace 0`` runs in each tree's own
checkout, in alternating pairs: the parent first in even pairs, the
working tree first in odd ones.  For every end-to-end metric of
BENCHMARK.json the script prints each pair, each side's median and
quartiles and how many pairs the working tree won, and it calls the
difference "unresolved" when the medians differ by less than the
parent's interquartile range.  It also says whether the two sides'
simulated fingerprints agree.  The worktree is removed afterwards,
also when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Summary(NamedTuple):
    """Both sides of a paired measurement, in the metric's unit."""

    parent: Tuple[float, float, float]  # quartiles, the median between
    change: Tuple[float, float, float]
    wins: int
    pairs: int
    #: The medians differ by more than the parent's interquartile range.
    resolved: bool


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Lower quartile, median and upper quartile, as perfbench reports
    its repeats (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def summarise(parent: Sequence[float], change: Sequence[float],
              higher_is_better: bool) -> Summary:
    """Pair ``i`` is ``(parent[i], change[i])``; the change wins a pair
    when it is strictly better."""
    sign = 1 if higher_is_better else -1
    before, after = quartiles(parent), quartiles(change)
    return Summary(
        before, after,
        sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        len(parent), abs(after[1] - before[1]) > before[2] - before[0])


def number(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def render(summary: Summary, metric: str, unit: str) -> List[str]:
    lines = [f"{side:<7} median {number(q[1])} {unit} "
             f"(quartiles {number(q[0])} / {number(q[2])})"
             for side, q in (("parent", summary.parent),
                             ("change", summary.change))]
    gap = summary.change[1] - summary.parent[1]
    verdict = "resolved" if summary.resolved else "unresolved"
    lines.append(
        f"{metric}: change won {summary.wins} of {summary.pairs} pairs; "
        f"medians differ by {'+' if gap >= 0 else ''}{number(gap)} {unit} "
        f"({gap / summary.parent[1]:+.1%}), parent IQR "
        f"{number(summary.parent[2] - summary.parent[0])}: {verdict}")
    return lines


def run_perfbench(tree: str, args) -> Tuple[Dict[str, float], str]:
    """One driver-form run in ``tree``: (its metrics, its fingerprint)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} "
                         f"(exit {done.returncode}):\n{done.stderr}")
    fingerprint = re.search(r"sim_fingerprint (\w+)", done.stdout)
    metrics = json.loads(lines[-1])["metrics"]
    return ({name: cell["value"] for name, cell in metrics.items()},
            fingerprint.group(1) if fingerprint else "?")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the revision to compare the working tree "
                             "against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]

    scratch = tempfile.mkdtemp(prefix="perfbench-ab-")
    parent_tree = os.path.join(scratch, "parent")
    subprocess.run(["git", "worktree", "add", "--detach", parent_tree,
                    args.parent], cwd=ROOT, check=True,
                   capture_output=True)
    try:
        trees = {"parent": parent_tree, "change": ROOT}
        for tree in trees.values():
            # A stale or missing .pyc costs a recompile in every fresh
            # process when the environment forbids writing them.
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            "src"], cwd=tree, check=True)
        runs: Dict[str, List[Dict[str, float]]] = {"parent": [],
                                                   "change": []}
        prints: Dict[str, set] = {"parent": set(), "change": set()}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                metrics, fingerprint = run_perfbench(trees[side], args)
                runs[side].append(metrics)
                prints[side].add(fingerprint)
            print(f"pair {pair + 1}: " + "; ".join(
                f"{entry['name']} {number(runs['parent'][-1][entry['name']])}"
                f" -> {number(runs['change'][-1][entry['name']])}"
                for entry in declared), flush=True)
        for entry in declared:
            name = entry["name"]
            summary = summarise([run[name] for run in runs["parent"]],
                                [run[name] for run in runs["change"]],
                                entry["better"] == "higher")
            for line in render(summary, name, entry["unit"]):
                print(line)
        same = prints["parent"] == prints["change"] \
            and len(prints["parent"]) == 1
        print(f"sim_fingerprint: parent {sorted(prints['parent'])}, change "
              f"{sorted(prints['change'])}: "
              f"{'identical' if same else 'DIFFERENT'}")
        return 0
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        parent_tree], cwd=ROOT, check=False,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False,
                       capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
