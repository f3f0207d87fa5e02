"""Every ``import repro`` of the benchmark lives in this file.

It uses the surface the ROADMAP keeps: ``RunSpec`` / ``run_spec``,
``run_benchmark(engine="event")``, ``StorageSystem.ingest`` /
``process`` / ``process_read`` / ``flush``, ``Workload.requests`` /
``shadow``, ``figures.ALL_FIGURES``, the ``validate`` module and the
``*_cache_stats()`` functions.  One private name is touched:
``validate._headline_claims``, because ``validate()`` takes no seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.signatures import signature_cache_stats
from repro.experiments import figures
from repro.experiments import validate as validate_module
from repro.experiments.parallel import RunSpec, run_spec
from repro.experiments.runner import run_benchmark
from repro.ledger import LedgerWriter
from repro.sim.metrics import Monitor
from repro.sim.profile import Profiler
from repro.sim.trace import RingBufferTracer
from repro.workloads.base import stream_cache_stats
from repro.workloads.content import dataset_cache_stats

#: How many failing requests a check pass describes in full.
FIRST_FAILURES = 3


@dataclass
class Repeat:
    """What one repeat of a workload hands back to the worker."""

    n_requests: int
    fingerprint: str
    #: Wall seconds of each piece: one per spec, one per figure.
    pieces_s: List[float]
    #: Per-layer counters; only a traced repeat fills them.
    extras: Dict[str, float] = field(default_factory=dict)


def _seconds(span: Dict[str, object]) -> float:
    return span["end_s"] - span["start_s"]


def fingerprint(results: Sequence) -> str:
    """sha256 over the canonical simulated payload of every run.

    ``RunResult.to_payload()`` carries no host-clock field, so the
    digest moves only when a simulated number moves.
    """
    doc = json.dumps([r.to_payload() for r in results], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _cache_counts() -> Dict[str, Tuple[int, int]]:
    """(hits, misses) of each memo, keyed by the metric it feeds."""
    stats = {"core.signatures.cache_hit_ratio": signature_cache_stats(),
             "workloads.stream_cache_hit_ratio": stream_cache_stats(),
             "workloads.dataset_cache_hit_ratio": dataset_cache_stats()}
    return {name: (s["hits"], s["misses"]) for name, s in stats.items()}


def _cache_hit_ratios(before: Dict[str, Tuple[int, int]]
                      ) -> Dict[str, float]:
    """Hit ratio of each memo since the ``before`` snapshot."""
    after = _cache_counts()
    return {name: _ratio(after[name][0] - hits,
                         after[name][0] - hits + after[name][1] - misses)
            for name, (hits, misses) in before.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def result_counters(results: Sequence, systems: Sequence = ()
                    ) -> Dict[str, float]:
    """Per-layer counters read from public results and device stats.

    Counts are summed over the runs of a repeat, ratios are taken over
    the sums, and latencies and utilisations take the worst run.
    """
    def count(name: str) -> int:
        return sum(r.counters.get(name, 0) for r in results)

    queueing = [r.queueing for r in results if r.queueing is not None]
    ssds = [device for system in systems for device in system.devices()
            if getattr(device, "name", "") == "ssd"]
    return {
        "core.similarity.scans": count("scans"),
        "core.similarity.scan_comparisons": count("scan_comparisons"),
        "core.controller.delta_writes": count("delta_writes"),
        "core.controller.delta_spills": count("delta_spills"),
        "core.controller.ram_delta_hits": count("ram_delta_hits"),
        "core.controller.delta_reconstructions":
            count("delta_reconstructions"),
        "core.controller.recon_cache_hit_ratio": _ratio(
            count("recon_cache_hits"), count("delta_reconstructions")),
        "core.controller.references_created": count("references_created"),
        "core.controller.references_retired": count("references_retired"),
        "delta.packer.delta_flushes": count("delta_flushes"),
        "delta.packer.records_flushed": count("delta_records_flushed"),
        "devices.ssd_write_blocks": sum(r.ssd_write_blocks
                                        for r in results),
        "devices.ssd_write_amplification": max(
            (ssd.write_amplification for ssd in ssds), default=0.0),
        "devices.ssd_erases": sum(ssd.total_erases for ssd in ssds),
        "sim.engine.wait_p99_us": max(
            (q.wait_p99_us for q in queueing), default=0.0),
        "sim.engine.util_max": max(
            (s.utilization for q in queueing
             for s in q.stations.values()), default=0.0),
        "sim.stats.read_p99_us": max(r.read_p99_us for r in results),
        "sim.stats.write_p99_us": max(r.write_p99_us for r in results),
        "sim.stats.sim_req_per_sim_s": _ratio(
            sum(r.n_measured for r in results),
            sum(r.wall_time_s for r in results)),
    }


class ReplayPlan:
    """One or more ``RunSpec`` runs replayed back to back."""

    warmup = True
    single_shot = False

    def __init__(self, entry: Dict[str, object], seed: int) -> None:
        self.specs = [RunSpec(engine="event", seed=seed, **run)
                      for run in entry["runs"]]
        self.n_requests = sum(spec.n_requests for spec in self.specs)

    def repeat(self, spans, traced: bool = False) -> Repeat:
        """One whole run of every spec, one span around each.

        Untraced, a run is ``run_spec(spec)``.  Traced, the adapter
        drives the same public calls ``run_spec`` makes, one span around
        each, and reads the per-layer counters of the repeat.
        """
        before = _cache_counts()
        results, systems, pieces = [], [], []
        for spec in self.specs:
            with spans.span(
                    f"perfbench.run.{spec.workload}.{spec.system}") as run:
                if traced:
                    result, system = self._drive(spec, spans)
                    systems.append(system)
                else:
                    result = run_spec(spec)
            results.append(result)
            pieces.append(_seconds(run))
        repeat = Repeat(self.n_requests, fingerprint(results), pieces)
        if traced:
            repeat.extras = result_counters(results, systems)
            repeat.extras.update(_cache_hit_ratios(before))
        return repeat

    @staticmethod
    def _drive(spec: RunSpec, spans):
        with spans.span("workloads.build"):
            workload = spec.build_workload()
        with spans.span("experiments.systems.build"):
            system = spec.build_system(workload)
        with spans.span("core.controller.ingest"):
            system.ingest()
        with spans.span("sim.engine.run"):
            result = run_benchmark(
                workload, system, engine=spec.engine,
                warmup_fraction=spec.warmup_fraction,
                preload=False, flush_at_end=False)
        with spans.span("core.controller.flush"):
            system.flush()
        return result, system

    def check(self) -> Dict[str, object]:
        """Direct-drive every request and compare reads with the shadow.

        Counts instead of aborting: a request fails when it raises or
        when a read returns any block that differs from
        ``workload.shadow``.  Each ``process`` call is timed.
        """
        attempted = reads = wrong_reads = wrong_blocks = raised = 0
        first: List[Dict[str, object]] = []
        process_us: List[float] = []
        clock = time.perf_counter
        for spec in self.specs:
            workload = spec.build_workload()
            system = spec.build_system(workload)
            system.ingest()
            for index, request in enumerate(workload.requests()):
                attempted += 1
                failure = None
                started = clock()
                try:
                    if request.is_read:
                        _, contents = system.process_read(request)
                    else:
                        system.process(request)
                except Exception as err:  # keep counting past a crash
                    raised += 1
                    failure = repr(err)
                process_us.append((clock() - started) * 1e6)
                if request.is_read and failure is None:
                    reads += 1
                    shadow = workload.shadow
                    bad = sum(
                        not np.array_equal(content,
                                           shadow[request.lba + offset])
                        for offset, content in enumerate(contents))
                    if bad:
                        wrong_reads += 1
                        wrong_blocks += bad
                        failure = f"{bad} wrong block(s)"
                if failure is not None and len(first) < FIRST_FAILURES:
                    first.append({"system": spec.system, "request": index,
                                  "lba": request.lba, "failure": failure})
            system.flush()
        process_us.sort()
        return {"attempted": attempted, "failed": wrong_reads + raised,
                "summary": f"{attempted} requests, {raised} raised, "
                           f"{wrong_reads} wrong reads of {reads} "
                           f"({wrong_blocks} blocks)",
                "first_failures": first,
                "process_us": _percentiles(process_us)}


def _percentiles(ordered: List[float]) -> Dict[str, float]:
    if not ordered:
        return {"p50": 0.0, "p99": 0.0, "max": 0.0}
    return {"p50": ordered[len(ordered) // 2],
            "p99": ordered[min(len(ordered) - 1,
                               math.ceil(len(ordered) * 0.99) - 1)],
            "max": ordered[-1]}


class GridPlan:
    """Every paper figure, once, in a fresh process (no warm-up)."""

    warmup = False
    single_shot = True

    def __init__(self, entry: Dict[str, object], seed: int) -> None:
        self.seed = seed
        self.n_requests = entry["n_requests"]
        self.per_vm_requests = entry["per_vm_requests"]
        self._figures: Dict[str, object] = {}
        self._raised: Dict[str, str] = {}

    def _call(self, fn):
        # Multi-VM figures size their runs per VM, the rest per run.
        if "n_requests" in inspect.signature(fn).parameters:
            return fn(n_requests=self.n_requests, seed=self.seed)
        return fn(per_vm_requests=self.per_vm_requests, seed=self.seed)

    def repeat(self, spans, traced: bool = False) -> Repeat:
        """Every figure from an empty grid cache, one span per figure."""
        figures.clear_cache()
        self._figures, self._raised = {}, {}
        before = _cache_counts()
        pieces = []
        with spans.span("perfbench.grid"):
            for name, fn in figures.ALL_FIGURES.items():
                try:
                    with spans.span(f"experiments.figures.{name}") as call:
                        self._figures[name] = self._call(fn)
                except Exception as err:  # counted by check()
                    self._raised[name] = repr(err)
                pieces.append(_seconds(call))
        runs = list({id(run): run for result in self._figures.values()
                     for run in result.runs.values()}.values())
        repeat = Repeat(sum(run.n_requests for run in runs),
                        fingerprint(runs), pieces)
        if traced:
            repeat.extras = result_counters(runs)
            repeat.extras.update(_cache_hit_ratios(before))
            repeat.extras.update(self._fidelity())
        return repeat

    def _pairs(self) -> Tuple[int, int]:
        """(compared, preserved) pairwise orderings over every figure,
        computed here from ``FigureResult.measured`` and ``.paper``."""
        compared = preserved = 0
        for result in self._figures.values():
            names = [n for n in result.paper if n in result.measured]
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    if result.paper[a] == result.paper[b]:
                        continue
                    compared += 1
                    preserved += ((result.paper[a] > result.paper[b])
                                  == (result.measured[a]
                                      > result.measured[b]))
        return compared, preserved

    def _fidelity(self) -> Dict[str, float]:
        compared, preserved = self._pairs()
        scores = [r.shape_score() for r in self._figures.values()]
        claims = (validate_module._headline_claims(self._figures)
                  if not self._raised else [])
        return {
            "experiments.figures.pairs_compared": compared,
            "experiments.figures.order_agreement":
                _ratio(preserved, compared),
            "experiments.validate.shape_score_mean":
                statistics.fmean(scores) if scores else 0.0,
            "experiments.validate.claims_held":
                sum(1 for claim in claims if claim.holds),
        }

    def check(self) -> Dict[str, object]:
        """One operation per figure call of the last shot: it fails when
        it raised, when a measured value is not finite, or when one of
        its runs measured no request."""
        first: List[Dict[str, object]] = []
        failed = 0
        for name in figures.ALL_FIGURES:
            failure = self._raised.get(name)
            result = self._figures.get(name)
            if failure is None:
                if not all(math.isfinite(v)
                           for v in result.measured.values()):
                    failure = "non-finite measured value"
                elif not all(run.n_measured > 0
                             for run in result.runs.values()):
                    failure = "a run measured no request"
            if failure is not None:
                failed += 1
                if len(first) < FIRST_FAILURES:
                    first.append({"figure": name, "failure": failure})
        compared, preserved = self._pairs()
        return {"attempted": len(figures.ALL_FIGURES), "failed": failed,
                "summary": f"{len(figures.ALL_FIGURES)} figure calls, "
                           f"{failed} failed; {preserved} of {compared} "
                           f"pairwise orderings agree with the paper",
                "first_failures": first,
                "process_us": _percentiles([])}


def make_plan(entry: Dict[str, object], seed: int):
    return (GridPlan if entry["kind"] == "grid" else ReplayPlan)(entry, seed)


#: Interleaved rounds of the observer-overhead rig.
OBSERVER_ROUNDS = 3


def observer_overheads(seed: int, n_requests: int, scratch_dir: str
                       ) -> Dict[str, float]:
    """Cost of each attachable observer on sysbench/icash/event.

    Interleaved rounds of {none, tracer, monitor, profiler, ledger};
    the fastest run of each mode, as a percentage over ``none`` (the
    ledger, a fixed cost per run, in milliseconds).
    """
    spec = RunSpec(workload="sysbench", system="icash", engine="event",
                   n_requests=n_requests, seed=seed, scale=0.5)
    observers = {
        "none": lambda: {},
        "tracer": lambda: {"tracer": RingBufferTracer()},
        "monitor": lambda: {"monitor": Monitor(interval_s=0.01)},
        "profiler": lambda: {"profiler": Profiler()},
        "ledger": lambda: {"ledger": LedgerWriter(
            root=tempfile.mkdtemp(prefix="ledger-", dir=scratch_dir))},
    }

    def one(kwargs: Dict[str, object]) -> float:
        workload = spec.build_workload()
        system = spec.build_system(workload)
        started = time.perf_counter()
        run_benchmark(workload, system, engine=spec.engine,
                      warmup_fraction=spec.warmup_fraction, **kwargs)
        return time.perf_counter() - started

    one({})  # fill the memos every mode shares
    walls: Dict[str, List[float]] = {mode: [] for mode in observers}
    for _ in range(OBSERVER_ROUNDS):
        for mode, make in observers.items():
            walls[mode].append(one(make()))
    best = {mode: min(w) for mode, w in walls.items()}

    def pct(mode: str) -> float:
        return (best[mode] / best["none"] - 1.0) * 100.0

    return {"sim.observers.tracer_overhead_pct": pct("tracer"),
            "sim.observers.monitor_overhead_pct": pct("monitor"),
            "sim.observers.profiler_overhead_pct": pct("profiler"),
            "ledger.overhead_ms": (best["ledger"] - best["none"]) * 1e3}
