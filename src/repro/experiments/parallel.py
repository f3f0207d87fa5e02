"""Parallel experiment fan-out.

The evaluation is a grid of independent runs — figure grid cells,
sweep points, load-test rate probes — each fully
determined by a handful of plain parameters (workload family, request
count, seed, system, engine, arrival pattern).  This module schedules
such runs across a :class:`~concurrent.futures.ProcessPoolExecutor`:

* a :class:`RunSpec` describes one run *declaratively* (no lambdas, no
  live objects), so specs pickle to worker processes;
* workers return :meth:`RunResult.to_payload` dicts (plain data, no
  tracer/registry state) plus the run's host wall time;
* results are collected **by submission index**, never by completion
  order, so the output is bit-identical to serial execution for any
  job count;
* a broken or timed-out pool degrades to in-process serial execution
  of whatever is still missing — parallelism is a go-faster switch,
  never a correctness risk.

Every run builds a fresh workload and system from the spec's seed, so
runs are independent and deterministic whether they execute in this
process, a worker, or a retry after a worker crash.
"""

from __future__ import annotations

import atexit
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (RunResult, record_run,
                                      run_benchmark)

#: Per-run wall-time ceiling before the pool is declared wedged and the
#: remaining runs fall back to serial execution.  Generous: the largest
#: committed suites run in seconds; only a hung worker ever hits this.
DEFAULT_TIMEOUT_S = 900.0

#: Data-set scale of each VM in a multi-VM run (``RunSpec.n_vms > 0``).
VM_SCALE = 0.25


_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _ensure_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent executor, grown (never shrunk) to ``jobs`` workers.

    Reused across waves — ``validate NAME``/``sweep``/``sweep
    load.rate`` issue many :func:`run_specs` calls, and pool-per-call paid the full
    worker spawn each time.  Workers build the datasets their specs
    name themselves, and keep their per-process memos (data set,
    request stream) warm between waves.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers < jobs:
        _discard_pool(wait=True)
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=jobs)
        _pool_workers = jobs
    return _pool


def _discard_pool(wait: bool = False) -> None:
    global _pool, _pool_workers
    if _pool is not None:
        try:
            _pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass
    _pool = None
    _pool_workers = 0


def shutdown_parallel() -> None:
    """Tear down the persistent pool.

    Safe to call any number of times; registered with ``atexit`` so a
    Ctrl-C'd or crashed driver does not leave workers behind.
    """
    _discard_pool(wait=False)


atexit.register(shutdown_parallel)


@contextmanager
def parallel_session():
    """Scope the persistent pool to a ``with`` block."""
    try:
        yield
    finally:
        shutdown_parallel()


@dataclass(frozen=True)
class RunSpec:
    """One independent benchmark run, described in picklable terms.

    ``load`` selects the arrival model for ``engine="event"`` runs:
    ``None`` (the workload's default closed loop),
    ``("open", rate_rps, distribution, seed)`` or
    ``("closed", clients, think_s)``.

    ``config_overrides`` builds an I-CASH controller from the workload's
    standard configuration with fields replaced — the sweep primitive.

    ``n_vms > 0`` wraps the workload family in a
    :class:`~repro.workloads.multivm.MultiVMWorkload` of VMs at
    :data:`VM_SCALE` (``n_requests`` then counts per VM).
    """

    workload: str
    system: str = "icash"
    engine: str = "legacy"
    n_requests: int = 10000
    seed: int = 2011
    scale: Optional[float] = None
    n_vms: int = 0
    warmup_fraction: float = 0.25
    flush_at_end: bool = True
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    load: Optional[Tuple] = None

    def build_workload(self):
        from repro.workloads import WORKLOADS, MultiVMWorkload

        cls = WORKLOADS[self.workload]
        if self.n_vms > 0:
            return MultiVMWorkload(cls, n_vms=self.n_vms,
                                   scale=VM_SCALE,
                                   n_requests_per_vm=self.n_requests,
                                   seed=self.seed)
        kwargs: Dict[str, object] = {"n_requests": self.n_requests,
                                     "seed": self.seed}
        if self.scale is not None:
            kwargs["scale"] = self.scale
        return cls(**kwargs)

    def build_system(self, workload):
        from repro.experiments.systems import (make_icash_config,
                                               make_system)

        if not self.config_overrides:
            return make_system(self.system, workload)
        if self.system != "icash":
            raise ValueError("config_overrides require system='icash', "
                             f"got {self.system!r}")
        from repro.core import ICASHController

        config = dc_replace(make_icash_config(workload),
                            **dict(self.config_overrides))
        return ICASHController(workload.build_dataset(), config)

    def build_load(self):
        if self.load is None:
            return None
        from repro.sim.load import ClosedLoopLoad, OpenLoopLoad

        kind = self.load[0]
        if kind == "open":
            _, rate_rps, distribution, seed = self.load
            return OpenLoopLoad(rate_rps, distribution=distribution,
                                seed=seed)
        if kind == "closed":
            _, clients, think_s = self.load
            return ClosedLoopLoad(clients=clients, think_s=think_s)
        raise ValueError(f"unknown load kind {kind!r}")


@dataclass
class SpecOutcome:
    """One completed run: the (virtual-clock) result plus the host wall
    seconds the run cost wherever it executed."""

    result: RunResult
    host_wall_s: float
    #: True when this run executed in a worker process.
    parallel: bool = field(default=False)


def run_spec(spec: RunSpec) -> RunResult:
    """Execute one spec in this process."""
    workload = spec.build_workload()
    system = spec.build_system(workload)
    return run_benchmark(workload, system, engine=spec.engine,
                         warmup_fraction=spec.warmup_fraction,
                         flush_at_end=spec.flush_at_end,
                         load=spec.build_load())


def execute_spec(spec: RunSpec) -> Dict[str, object]:
    """Worker entry point: run one spec, return a plain-data envelope.

    Module-level (not a closure) so the function itself pickles to the
    pool.  The returned dict carries only payload data, never live
    simulator objects.
    """
    start = time.perf_counter()
    result = run_spec(spec)
    return {"payload": result.to_payload(),
            "host_wall_s": time.perf_counter() - start}


def _serial_outcome(spec: RunSpec) -> SpecOutcome:
    envelope = execute_spec(spec)
    return SpecOutcome(
        result=RunResult.from_payload(envelope["payload"]),
        host_wall_s=envelope["host_wall_s"], parallel=False)


def run_specs(specs: Sequence[RunSpec], jobs: int = 1,
              progress: Optional[Callable[[RunSpec], None]] = None,
              ) -> List[SpecOutcome]:
    """Run every spec; return outcomes in input order.

    ``jobs <= 1`` (or a single spec) runs serially in-process.  With a
    pool, results are still collected in submission order, so metric
    output is byte-identical to serial execution regardless of which
    worker finishes first.  The pool is *persistent* — reused and grown
    across calls (see :func:`_ensure_pool`) until
    :func:`shutdown_parallel` or process exit.

    A crashed (``BrokenExecutor``/``OSError``) or wedged (per-run
    :data:`DEFAULT_TIMEOUT_S`) pool is abandoned and the *missing* runs
    — and only those — re-execute serially; exceptions a run itself
    raises (bad spec, failed verification) propagate exactly as they
    would serially.
    """
    specs = list(specs)
    outcomes: List[Optional[SpecOutcome]] = [None] * len(specs)
    if jobs <= 1 or len(specs) <= 1:
        for index, spec in enumerate(specs):
            if progress is not None:
                progress(spec)
            outcomes[index] = _serial_outcome(spec)
        return outcomes  # type: ignore[return-value]

    pool_failed = False
    try:
        pool = _ensure_pool(jobs)
        futures = [pool.submit(execute_spec, spec) for spec in specs]
        for index, future in enumerate(futures):
            if progress is not None:
                progress(specs[index])
            try:
                envelope = future.result(timeout=DEFAULT_TIMEOUT_S)
            except (BrokenExecutor, FutureTimeoutError, OSError) as err:
                print(f"parallel: worker pool failed ({err!r}); "
                      f"falling back to serial execution",
                      file=sys.stderr)
                pool_failed = True
                for pending in futures[index:]:
                    pending.cancel()
                _discard_pool(wait=False)
                break
            outcomes[index] = SpecOutcome(
                result=RunResult.from_payload(envelope["payload"]),
                host_wall_s=envelope["host_wall_s"], parallel=True)
    except (BrokenExecutor, OSError) as err:  # pool setup/teardown died
        print(f"parallel: executor unavailable ({err!r}); "
              f"falling back to serial execution", file=sys.stderr)
        pool_failed = True
        _discard_pool(wait=False)

    if pool_failed:
        for index, spec in enumerate(specs):
            if outcomes[index] is None:
                outcomes[index] = _serial_outcome(spec)
    return outcomes  # type: ignore[return-value]


def record_outcomes(ledger, command: str, specs: Sequence[RunSpec],
                    outcomes: Sequence[SpecOutcome],
                    extras: Sequence[Dict[str, object]],
                    ) -> List[Optional[str]]:
    """Write one wave to the run ledger; returns the rows' run ids.

    Rows go in in submission order, from this process, with the
    executed spec as the recipe — so the store is the same at any job
    count (docs/LEDGER.md).
    """
    return [record_run(ledger, outcome.result, command, spec, extra,
                       outcome.host_wall_s)
            for spec, outcome, extra in zip(specs, outcomes, extras)]
