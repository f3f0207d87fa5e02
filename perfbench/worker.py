"""One workload in one fresh process; ``run.py`` starts it and reads the
JSON document it prints as its last line.

Modes: ``setup`` stops after the set-up, ``timed`` adds the timed
repeats and the check pass, ``trace`` adds spans, counters and observer
overheads, ``profile`` runs one repeat under cProfile.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import sys
import time

import adapter
import tracing
import workloads

#: Requests of the observer-overhead rig (sysbench/icash/event).
OBSERVER_REQUESTS = 4000


def monotonic() -> float:
    """The system-wide monotonic clock, comparable with ``run.py``'s."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "trace", "profile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-repeats", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="monotonic() in run.py just before the spawn")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="timed mode: run the check pass too")
    args = parser.parse_args()

    plan = adapter.make_plan(workloads.lookup(args.workload, args.quick),
                             args.seed)
    spans = tracing.SpanRecorder()
    if plan.warmup:
        # Cold: fills the stream, dataset and signature memos.
        plan.repeat(spans)
    doc = {"mode": args.mode, "setup_s": monotonic() - args.started}
    if args.mode == "profile":
        doc.update(profiled(plan, spans))
    elif args.mode != "setup":
        doc.update(measured(plan, spans, args))
    print(json.dumps(doc))


def profiled(plan, spans) -> dict:
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    repeat = plan.repeat(spans)
    profile.disable()
    wall = time.perf_counter() - started
    return {"profile_wall_s": wall,
            "layers": tracing.layer_table(profile, repeat.n_requests)}


def measured(plan, spans, args) -> dict:
    traced = args.mode == "trace"
    repeats = []
    while True:
        gc.collect()
        spans.repeat += 1
        # A single-shot plan has no repeat to spare, so its one timed
        # shot is also the traced one (a dozen spans, one per figure).
        repeats.append(plan.repeat(spans, traced and plan.single_shot))
        timed_s = sum(sum(r.pieces_s) for r in repeats)
        if plan.single_shot or (len(repeats) >= args.min_repeats
                                and timed_s >= args.seconds):
            break
    doc = {"n_requests": repeats[0].n_requests,
           "pieces_s": [r.pieces_s for r in repeats],
           "fingerprints": [r.fingerprint for r in repeats],
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    extras = repeats[-1].extras
    if traced and not plan.single_shot:
        spans.repeat += 1
        extras = plan.repeat(spans, traced=True).extras
    if traced or args.check:
        doc["check"] = plan.check()
    if traced:
        extras.update(adapter.observer_overheads(
            args.seed, OBSERVER_REQUESTS // (10 if args.quick else 1), "."))
        extras.update({
            "workloads.build_s": spans.seconds("workloads.build"),
            "core.controller.ingest_s":
                spans.seconds("core.controller.ingest"),
            "core.controller.flush_s":
                spans.seconds("core.controller.flush"),
        })
        # Only the traced repeat's spans: the rest are one per piece.
        doc.update(extras=extras, spans=[
            s for s in spans.spans if s["repeat"] == spans.repeat])
    return doc


if __name__ == "__main__":
    sys.exit(main())
