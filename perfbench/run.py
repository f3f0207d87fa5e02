#!/usr/bin/env python3
"""perfbench: simulated requests per host-second, from one rig.

Driver form — one workload, result as the last line of stdout::

    python3 perfbench/run.py --workload oltp_read --seed 1 --seconds 10 --trace 0

Suite form — every workload of BENCHMARK.json, files under ``--out``::

    python3 perfbench/run.py --seed 2011 --out /tmp/pb [--trace] [--quick] [--aa]

Each workload runs in fresh subprocesses (``worker.py``), one at a
time, with ``--out`` as their working directory.  This file imports
nothing from ``repro``; see README.md for every definition.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh-process set-ups; ``setup_s`` is the fastest of them.
N_SETUPS = 3
#: ``--quick``: one warm-up and this many repeats, whatever they take.
QUICK_REPEATS = 2
#: No child may outlive this; the whole run has 180 s.
CHILD_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The rig itself failed (not the program under test)."""


def load_benchmark() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(mode: str, workload: str, seed: int, out_dir: str,
          seconds: float = 0.0, min_repeats: int = 1,
          quick: bool = False, check: bool = False) -> Dict[str, object]:
    """Run one ``worker.py`` to completion and return its document."""
    env = dict(os.environ)
    # One dict and set order for every child: one noise source less.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--mode", mode, "--seed", str(seed),
               "--seconds", repr(seconds), "--min-repeats", str(min_repeats)]
    if quick:
        command.append("--quick")
    if check:
        command.append("--check")
    command += ["--started",
                repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        done = subprocess.run(command, cwd=out_dir, env=env, text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:  # run() has killed the child
        raise HarnessError(f"{workload}/{mode} exceeded "
                           f"{CHILD_TIMEOUT_S} s") from err
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if done.returncode != 0 or not lines:
        raise HarnessError(f"{workload}/{mode} exited {done.returncode}")
    return json.loads(lines[-1])


def tally(docs: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold the timed documents of one workload into attempted/failed.

    Attempted = operations of the check pass + requests of every timed
    repeat; a repeat whose simulated fingerprint differs from the first
    counts all its requests as failed.
    """
    pieces = [p for doc in docs for p in doc["pieces_s"]]
    prints = [p for doc in docs for p in doc["fingerprints"]]
    n_requests = docs[0]["n_requests"]
    check = docs[0]["check"]
    drifted = sum(1 for p in prints if p != prints[0])
    attempted = check["attempted"] + n_requests * len(prints)
    failed = check["failed"] + n_requests * drifted
    return {"n_requests": n_requests, "pieces_s": pieces,
            "drifted_repeats": drifted,
            "walls_s": [sum(repeat) for repeat in pieces],
            "fastest_s": fastest(pieces),
            "sim_fingerprint": prints[0], "check": check,
            "attempted": attempted, "failed": failed,
            "ops_failed_share": failed / attempted}


def fastest(pieces: List[List[float]]) -> float:
    """Wall of a repeat assembled from the fastest sample of each piece.

    A repeat is a fixed sequence of pieces (one per spec, one per
    figure).  Noise on a shared box only ever adds time, in stretches a
    25 s shot cannot dodge but a 2 s piece can, so the steadiest
    estimate of what a repeat costs is the sum over its pieces of the
    fastest wall seen for that piece in any repeat.
    """
    return sum(min(samples) for samples in zip(*pieces))


def repeat_shares(name: str, quick: bool) -> Tuple[int, int]:
    """(fewest timed repeats of the workload, workers they are split
    over).  ``--quick`` is one worker: two repeats, or one grid shot."""
    entry = workloads.lookup(name)
    if quick:
        return (1 if entry["kind"] == "grid" else QUICK_REPEATS), 1
    return entry["min_repeats"], N_SETUPS


def measure_timed(name: str, seed: int, seconds: float, quick: bool,
                  out_dir: str) -> Dict[str, object]:
    """End-to-end numbers of one workload, tracing off.

    The timed seconds are split over fresh processes, so that each
    gives one set-up sample and the repeats sample the host in several
    windows; the first process also runs the check pass.
    """
    min_repeats, workers = repeat_shares(name, quick)
    if quick:
        seconds = 0.0
    docs: List[Dict[str, object]] = []
    repeats = 0
    timed_s = 0.0
    while repeats < min_repeats or timed_s < seconds:
        docs.append(spawn("timed", name, seed, out_dir,
                          seconds=seconds / workers,
                          min_repeats=-(-min_repeats // workers),
                          quick=quick, check=not docs))
        repeats += len(docs[-1]["pieces_s"])
        timed_s += sum(map(sum, docs[-1]["pieces_s"]))
    setups = [doc["setup_s"] for doc in docs]
    while len(setups) < workers:
        setups.append(spawn("setup", name, seed, out_dir,
                            quick=quick)["setup_s"])
    record = tally(docs)
    record["setups_s"] = setups
    record["metrics"] = {
        "sim_req_per_host_s": record["n_requests"] / record["fastest_s"],
        "setup_s": min(setups),
        "peak_rss_mb": max(doc["peak_rss_mb"] for doc in docs),
    }
    return record


def measure_traced(name: str, seed: int, quick: bool,
                   out_dir: str) -> Dict[str, object]:
    """Per-layer numbers of one workload: a traced and a profiled run."""
    min_repeats, workers = repeat_shares(name, quick)
    traced = spawn("trace", name, seed, out_dir, quick=quick,
                   min_repeats=-(-min_repeats // workers))
    profiled = spawn("profile", name, seed, out_dir, quick=quick)
    record = tally([traced])
    metrics = dict(traced["extras"])
    for layer, row in profiled["layers"].items():
        for key, value in row.items():
            metrics[f"{layer}.{key}"] = value
    for key, value in traced["check"]["process_us"].items():
        metrics[f"core.controller.process_us_{key}"] = value
    metrics["perfbench.trace_overhead_x"] = (
        profiled["profile_wall_s"] / record["fastest_s"])
    record["metrics"] = metrics
    record["spans"] = traced["spans"]
    return record


def with_units(values: Dict[str, float], declared: List[Dict[str, str]]
               ) -> Dict[str, Dict[str, object]]:
    """Exactly the declared metrics, each with its unit; a metric the
    workload cannot observe (no SSD handle on the grid, no figure on a
    replay) reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0.0),
                        "unit": m["unit"]} for m in declared}


# -- hygiene ----------------------------------------------------------------

def _tree(top: str) -> List[str]:
    listing = []
    for folder, dirs, files in os.walk(top):
        dirs[:] = [d for d in dirs
                   if d not in ("__pycache__", ".git", ".perfbench")]
        listing.extend(os.path.join(folder, f) for f in files)
    return sorted(listing)


def hygiene_snapshot() -> Dict[str, object]:
    """What a run must leave as it found it: the repo (``git status``,
    or the file listing outside a git checkout), the shared-memory
    arena and the run ledger."""
    try:
        repo = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, check=True,
            text=True, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL).stdout
    except (OSError, subprocess.CalledProcessError):
        repo = _tree(ROOT)
    return {"repo": repo,
            "arena": sorted(glob.glob("/dev/shm/repro-arena-*")),
            "ledger": _tree(os.path.join(ROOT, ".repro-ledger"))}


def hygiene_changes(before: Dict[str, object]) -> List[str]:
    after = hygiene_snapshot()
    return [key for key in before if before[key] != after[key]]


# -- output -----------------------------------------------------------------

def host_fingerprint() -> Dict[str, object]:
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform()}


def print_metrics(name: str, metrics: Dict[str, Dict[str, object]]) -> None:
    for metric, cell in metrics.items():
        print(f"{name:<16} {metric:<44} {cell['value']:>16.6g} "
              f"{cell['unit']}")


def print_record(name: str, record: Dict[str, object]) -> None:
    walls = record["walls_s"]
    if len(walls) > 1:
        low, mid, high = statistics.quantiles(walls, n=4)
    else:
        low = mid = high = walls[0]
    print(f"{name:<16} {len(walls)} timed repeat(s) of "
          f"{record['n_requests']} requests: fastest "
          f"{record['fastest_s']:.4f} s, median {mid:.4f} s "
          f"(quartiles {low:.4f} / {high:.4f})")
    if "setups_s" in record:
        print(f"{name:<16} set-ups: "
              + " / ".join(f"{s:.3f}" for s in record["setups_s"]) + " s")
    print(f"{name:<16} check pass: {record['check']['summary']}")
    for failure in record["check"]["first_failures"]:
        print(f"{name:<16} check failure {json.dumps(failure)}")
    if record["drifted_repeats"]:
        print(f"{name:<16} {record['drifted_repeats']} repeat(s) differ "
              f"from repeat 1 in simulated output")
    print(f"{name:<16} attempted {record['attempted']} failed "
          f"{record['failed']} ops_failed_share "
          f"{record['ops_failed_share']:.6g}")


def fingerprint_note(name: str, seed: int, record: Dict[str, object]
                     ) -> None:
    """Information, never a failure: fidelity work may move it."""
    with open(os.path.join(HERE, "fingerprints.json")) as handle:
        stored = json.load(handle).get(str(seed), {}).get(name)
    verdict = ("no stored fingerprint for this seed" if stored is None
               else "matches stored" if stored == record["sim_fingerprint"]
               else f"DIFFERS from stored {stored[:12]}")
    print(f"{name:<16} sim_fingerprint {record['sim_fingerprint'][:12]} "
          f"({verdict})")


# -- the two forms ----------------------------------------------------------

def run_workload(name: str, args, bench: Dict[str, object], out_dir: str,
                 timed: bool, traced: bool):
    """Measure and print one workload: (record, metrics, spans).

    The record (attempted, failed, fingerprint) is the timed run's when
    there is one, else the traced run's.
    """
    record, spans = None, None
    metrics: Dict[str, Dict[str, object]] = {}
    if timed:
        record = measure_timed(name, args.seed, args.seconds, args.quick,
                               out_dir)
        metrics.update(with_units(record["metrics"], bench["end_to_end"]))
    if traced:
        layers = measure_traced(name, args.seed, args.quick, out_dir)
        metrics.update(with_units(layers["metrics"], bench["per_layer"]))
        spans = layers["spans"]
        record = record or layers
    print_record(name, record)
    fingerprint_note(name, args.seed, record)
    print_metrics(name, metrics)
    return record, metrics, spans


def write_trace(out_dir: str, trace_doc: Dict[str, object]) -> None:
    with open(os.path.join(out_dir, "trace.json"), "w") as handle:
        json.dump(trace_doc, handle, indent=1)


def run_driver(args, bench: Dict[str, object], out_dir: str) -> int:
    """One workload; the contract's JSON object is the last line."""
    before = hygiene_snapshot()
    record, metrics, spans = run_workload(
        args.workload, args, bench, out_dir,
        timed=not args.trace, traced=bool(args.trace))
    if args.trace:
        write_trace(out_dir, {args.workload: spans})
    dirty = hygiene_changes(before)
    if dirty:
        print(f"HYGIENE: the run changed {dirty}", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0 and not dirty,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 3 if dirty else 0


def run_suite(args, bench: Dict[str, object], out_dir: str,
              names: Optional[List[str]] = None) -> Dict[str, object]:
    """Every workload once; returns the results.json document."""
    names = names or [w["name"] for w in bench["workloads"]]
    results: Dict[str, object] = {
        "seed": args.seed, "quick": args.quick,
        "host": host_fingerprint(), "workloads": {}}
    trace_doc: Dict[str, object] = {}
    for name in names:
        record, metrics, trace_doc[name] = run_workload(
            name, args, bench, out_dir, timed=True, traced=bool(args.trace))
        results["workloads"][name] = {
            "metrics": metrics,
            **{key: record[key] for key in (
                "n_requests", "walls_s", "fastest_s", "setups_s",
                "sim_fingerprint", "attempted", "failed",
                "ops_failed_share", "check")}}
    if args.trace:
        write_trace(out_dir, trace_doc)
    return results


def run_aa(args, bench: Dict[str, object], out_dir: str
           ) -> Dict[str, object]:
    """The full set twice, the second time in reverse order, judged
    against the bounds of BENCHMARK.json."""
    names = [w["name"] for w in bench["workloads"]]
    first = run_suite(args, bench, out_dir, names)
    second = run_suite(args, bench, out_dir, names[::-1])
    verdicts = []
    for metric in bench["end_to_end"]:
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for name in names:
            a, b = (run["workloads"][name]["metrics"][metric["name"]]
                    ["value"] for run in (first, second))
            gap = sign * (b - a) / a
            ok = abs(gap) <= metric["bound"]
            verdicts.append(ok)
            print(f"A/A {name:<16} {metric['name']:<20} {a:>12.6g} "
                  f"{b:>12.6g} {metric['unit']:<6} second worse by "
                  f"{gap:+7.2%} bound {metric['bound']:.0%} "
                  f"{'PASS' if ok else 'FAIL'}")
    for name in names:
        # ``attempted`` grows with the repeats a run had time for, so
        # the exact comparison is on what does not depend on host speed.
        a, b = (run["workloads"][name] for run in (first, second))
        same = (a["sim_fingerprint"] == b["sim_fingerprint"]
                and a["failed"] == b["failed"]
                and a["check"]["summary"] == b["check"]["summary"])
        verdicts.append(same)
        print(f"A/A {name:<16} fingerprint, failures and check pass "
              f"{'repeat exactly' if same else 'DIFFER'}")
    first["aa"] = {"second": second["workloads"], "pass": all(verdicts)}
    return first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload and "
                        "print the result object as the last line")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="directory for results.json and "
                        "trace.json; also the children's cwd")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the requests, 1 warm + 2 repeats")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and compare")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    scratch = None
    if args.out:
        out_dir = os.path.abspath(args.out)
        os.makedirs(out_dir, exist_ok=True)
    else:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        out_dir = scratch = tempfile.mkdtemp(
            prefix="run-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        if args.workload:
            return run_driver(args, bench, out_dir)
        before = hygiene_snapshot()
        results = (run_aa if args.aa else run_suite)(args, bench, out_dir)
        results["hygiene_changed"] = hygiene_changes(before)
        with open(os.path.join(out_dir, "results.json"), "w") as handle:
            json.dump(results, handle, indent=1)
        if results["hygiene_changed"]:
            print(f"HYGIENE: the run changed {results['hygiene_changed']}",
                  file=sys.stderr)
            return 3
        return 0
    except HarnessError as err:
        print(f"perfbench: harness error: {err}", file=sys.stderr)
        return 1
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
