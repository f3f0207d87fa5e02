"""One entry point per paper figure and table.

Each ``figure*`` function runs the relevant workload across the five
architectures (sharing runs between sub-figures of the same benchmark)
and returns a :class:`FigureResult` holding the measured values, the
paper's published values, and rendering/shape-check helpers.

Absolute values are not expected to match the paper (the substrate is a
simulator, the workloads synthetic, the scale 1/30th); the deliverable is
the *shape*: who wins, by roughly what factor, and where the crossovers
fall.  :meth:`FigureResult.shape_score` quantifies exactly that — the
fraction of the paper's pairwise system orderings the reproduction
preserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.experiments import paperdata
from repro.experiments.parallel import RunSpec, run_spec, run_specs
from repro.experiments.report import (comparison_table, normalize,
                                      render_shape_check, shape_score)
from repro.experiments.runner import RunResult, record_run
from repro.experiments.systems import SYSTEM_NAMES

#: Default request count per benchmark run; benches may raise it.
DEFAULT_REQUESTS = 10000
#: Multi-VM figures size their runs per VM: this many requests in each
#: of this many cloned images.
MULTIVM_REQUESTS = 2500
MULTIVM_VMS = 5
#: Default seed (the paper's publication year, naturally).
DEFAULT_SEED = 2011
#: Warmup fraction excluded from measurement.
DEFAULT_WARMUP = 0.4


@dataclass
class FigureResult:
    """Measured-vs-paper outcome of one figure."""

    figure: str
    title: str
    metric: str
    better: str
    measured: Dict[str, float]
    paper: Dict[str, float]
    runs: Dict[str, RunResult] = field(default_factory=dict)
    #: The executed recipe behind each entry of ``runs``.
    specs: Dict[str, RunSpec] = field(default_factory=dict)

    def shape_score(self) -> float:
        """Fraction of the paper's pairwise orderings preserved."""
        return shape_score(self.measured, self.paper)

    def render(self) -> str:
        table = comparison_table(
            f"{self.figure}: {self.title}", SYSTEM_NAMES, self.measured,
            self.paper, unit=self.metric, better=self.better,
            precision=2)
        return table + "\n" + render_shape_check(self.measured, self.paper)

    def render_bars(self) -> str:
        """The figure as the paper draws it: horizontal bars, measured
        (solid) over the paper's series (light)."""
        from repro.experiments.plotting import ascii_bars
        header = f"{self.figure}: {self.title} ({self.better} is better)"
        bars = ascii_bars(self.measured, SYSTEM_NAMES, unit=self.metric,
                          reference=self.paper)
        return f"{header}\n{bars}"


def record_figure(ledger, result: FigureResult) -> int:
    """Append a figure's per-system runs to the run ledger.

    One row per architecture under ``command="figure"``, recipe = the
    grid cell's spec, with the figure name in ``extra`` — so trends can
    filter one system out of one figure's history.  Returns the number
    of rows appended.
    """
    return sum(
        record_run(ledger, run, "figure", result.specs[system],
                   extra={"figure": result.figure, "system": system,
                          "metric": result.metric}) is not None
        for system, run in sorted(result.runs.items()))


# ----------------------------------------------------------------------
# Shared run cache: Figure 6(a), 6(b) and 7 all come from one SysBench
# grid; rerunning it per sub-figure would triple the cost.
# ----------------------------------------------------------------------

_GRID_CACHE: Dict[Tuple, Dict[str, RunResult]] = {}

#: The engine every grid cell runs on, serial or fanned out; part of
#: the cache key because it changes the measured numbers.
_GRID_ENGINE = "legacy"


def _grid_key(workload_name: str, n_requests: int, seed: int) -> Tuple:
    """Cache key covering *every* parameter that shapes a grid's runs.

    Engine and warmup fraction are constants today, but they change the
    measured numbers, so they belong in the key — a cache keyed only on
    (workload, n_requests, seed) would silently serve stale results if
    either ever varied.
    """
    return (workload_name, n_requests, seed, _GRID_ENGINE, DEFAULT_WARMUP)


def _cells(family: str, n_requests: int, seed: int,
           n_vms: int = 0) -> Tuple[Tuple, Dict[str, RunSpec]]:
    """One workload's grid: its cache key and the run behind each cell.

    This is the only definition of a cell — :func:`_grid` runs these
    specs in-process, :func:`prewarm` fans the same ones out.  With
    ``n_vms`` the family runs as that many cloned images and
    ``n_requests`` counts per VM.
    """
    if n_vms:
        key = _grid_key(f"{family}-{n_vms}vms", n_requests * n_vms, seed)
    else:
        key = _grid_key(family, n_requests, seed)
    return key, {
        system: RunSpec(workload=family, system=system,
                        engine=_GRID_ENGINE, n_requests=n_requests,
                        seed=seed, n_vms=n_vms,
                        warmup_fraction=DEFAULT_WARMUP)
        for system in SYSTEM_NAMES}


def _grid(family: str, n_requests: int, seed: int, n_vms: int = 0
          ) -> Tuple[Dict[str, RunResult], Dict[str, RunSpec]]:
    """One workload's runs and the specs that produced them."""
    key, specs = _cells(family, n_requests, seed, n_vms)
    cached = _GRID_CACHE.setdefault(key, {})
    for system, spec in specs.items():
        if system not in cached:
            cached[system] = run_spec(spec)
    # Fixed iteration order regardless of how cells were filled in
    # (here or by a parallel prewarm).
    return {name: cached[name] for name in SYSTEM_NAMES}, specs


def clear_cache() -> None:
    """Drop memoised grids (tests use this to force fresh runs)."""
    _GRID_CACHE.clear()


# ----------------------------------------------------------------------
# Parallel prewarm: every figure reads from a (workload, systems) grid,
# and the grid cells are independent runs — ideal fan-out units.
# ----------------------------------------------------------------------

#: Single-workload grid behind each figure.
_FIGURE_FAMILY: Dict[str, str] = {
    "figure6a": "sysbench", "figure6b": "sysbench",
    "figure8a": "hadoop", "figure8b": "hadoop",
    "figure10a": "tpcc", "figure10b": "tpcc", "figure11": "tpcc",
    "figure12": "loadsim", "figure13": "specsfs", "figure14": "rubis",
}

#: Multi-VM figures pin their own request counts (``MULTIVM_*``).
_FIGURE_MULTIVM: Dict[str, str] = {"figure15": "tpcc", "figure16": "rubis"}


def grid_requirements(names, n_requests: int = DEFAULT_REQUESTS,
                      seed: int = DEFAULT_SEED):
    """The distinct grid cells the named figures will consult.

    Returns ``[(cache_key, system_name, RunSpec), ...]`` — one entry per
    (grid, system) pair, deduplicated, in deterministic order.
    """
    cells = []
    seen = set()
    for name in names:
        if name in _FIGURE_FAMILY:
            key, specs = _cells(_FIGURE_FAMILY[name], n_requests, seed)
        elif name in _FIGURE_MULTIVM:
            key, specs = _cells(_FIGURE_MULTIVM[name], MULTIVM_REQUESTS,
                                seed, n_vms=MULTIVM_VMS)
        else:
            raise KeyError(f"unknown figure {name!r}")
        if key not in seen:
            seen.add(key)
            cells.extend((key, system, spec)
                         for system, spec in specs.items())
    return cells


def prewarm(names, n_requests: int = DEFAULT_REQUESTS,
            seed: int = DEFAULT_SEED, jobs: int = 1,
            progress: Optional[Callable] = None) -> int:
    """Run (in parallel when ``jobs > 1``) every grid cell the named
    figures need that is not already cached, and install the results.

    Figure functions called afterwards hit the cache and return
    instantly.  Returns the number of cells actually run.
    """
    todo = [(key, system, spec)
            for key, system, spec in grid_requirements(names, n_requests,
                                                       seed)
            if system not in _GRID_CACHE.get(key, {})]
    if not todo:
        return 0
    outcomes = run_specs([spec for _, _, spec in todo], jobs=jobs,
                         progress=progress)
    for (key, system, _), outcome in zip(todo, outcomes):
        _GRID_CACHE.setdefault(key, {})[system] = outcome.result
    return len(todo)


def _metric(runs: Dict[str, RunResult],
            getter: Callable[[RunResult], float]) -> Dict[str, float]:
    return {name: getter(run) for name, run in runs.items()}


# ----------------------------------------------------------------------
# SysBench: Figures 6(a), 6(b), 7
# ----------------------------------------------------------------------

def figure6a(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("sysbench", n_requests, seed)
    return FigureResult(
        "Figure 6(a)", "SysBench transaction rate", "tx/s", "higher",
        _metric(runs, lambda r: r.transactions_per_s),
        paperdata.FIG6A_SYSBENCH_TPS, runs, specs)


def figure6b(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("sysbench", n_requests, seed)
    return FigureResult(
        "Figure 6(b)", "SysBench CPU utilisation", "fraction", "lower",
        _metric(runs, lambda r: r.cpu_utilization),
        paperdata.FIG6B_SYSBENCH_CPU, runs, specs)


def figure7(n_requests: int = DEFAULT_REQUESTS,
            seed: int = DEFAULT_SEED) -> Tuple[FigureResult, FigureResult]:
    runs, specs = _grid("sysbench", n_requests, seed)
    read = FigureResult(
        "Figure 7 (read)", "SysBench read response time", "µs", "lower",
        _metric(runs, lambda r: r.read_mean_us),
        paperdata.FIG7_SYSBENCH_READ_US, runs, specs)
    write = FigureResult(
        "Figure 7 (write)", "SysBench write response time", "µs", "lower",
        _metric(runs, lambda r: r.write_mean_us),
        paperdata.FIG7_SYSBENCH_WRITE_US, runs, specs)
    return read, write


# ----------------------------------------------------------------------
# Hadoop: Figures 8(a), 8(b), 9
# ----------------------------------------------------------------------

def figure8a(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("hadoop", n_requests, seed)
    return FigureResult(
        "Figure 8(a)", "Hadoop execution time", "s", "lower",
        _metric(runs, lambda r: r.wall_time_s),
        paperdata.FIG8A_HADOOP_TIME_S, runs, specs)


def figure8b(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("hadoop", n_requests, seed)
    return FigureResult(
        "Figure 8(b)", "Hadoop CPU utilisation", "fraction", "lower",
        _metric(runs, lambda r: r.cpu_utilization),
        paperdata.FIG8B_HADOOP_CPU, runs, specs)


def figure9(n_requests: int = DEFAULT_REQUESTS,
            seed: int = DEFAULT_SEED) -> Tuple[FigureResult, FigureResult]:
    runs, specs = _grid("hadoop", n_requests, seed)
    read = FigureResult(
        "Figure 9 (read)", "Hadoop read response time", "µs", "lower",
        _metric(runs, lambda r: r.read_mean_us),
        paperdata.FIG9_HADOOP_READ_US, runs, specs)
    write = FigureResult(
        "Figure 9 (write)", "Hadoop write response time", "µs", "lower",
        _metric(runs, lambda r: r.write_mean_us),
        paperdata.FIG9_HADOOP_WRITE_US, runs, specs)
    return read, write


# ----------------------------------------------------------------------
# TPC-C: Figures 10(a), 10(b), 11
# ----------------------------------------------------------------------

def figure10a(n_requests: int = DEFAULT_REQUESTS,
              seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("tpcc", n_requests, seed)
    return FigureResult(
        "Figure 10(a)", "TPC-C transaction rate", "tx/s", "higher",
        _metric(runs, lambda r: r.transactions_per_s),
        paperdata.FIG10A_TPCC_TPS, runs, specs)


def figure10b(n_requests: int = DEFAULT_REQUESTS,
              seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("tpcc", n_requests, seed)
    return FigureResult(
        "Figure 10(b)", "TPC-C CPU utilisation", "fraction", "lower",
        _metric(runs, lambda r: r.cpu_utilization),
        paperdata.FIG10B_TPCC_CPU, runs, specs)


def figure11(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("tpcc", n_requests, seed)
    return FigureResult(
        "Figure 11", "TPC-C application response time", "ms", "lower",
        _metric(runs, lambda r: r.tx_response_ms),
        paperdata.FIG11_TPCC_RSP_MS, runs, specs)


# ----------------------------------------------------------------------
# LoadSim, SPEC-sfs, RUBiS: Figures 12, 13, 14
# ----------------------------------------------------------------------

def figure12(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("loadsim", n_requests, seed)
    return FigureResult(
        "Figure 12", "LoadSim score (response-time based)", "score",
        "lower",
        _metric(runs, lambda r: r.loadsim_score),
        paperdata.FIG12_LOADSIM_SCORE, runs, specs)


def figure13(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("specsfs", n_requests, seed)
    return FigureResult(
        "Figure 13", "SPEC-sfs response time", "ms", "lower",
        _metric(runs, lambda r: r.io_response_ms),
        paperdata.FIG13_SPECSFS_RSP_MS, runs, specs)


def figure14(n_requests: int = DEFAULT_REQUESTS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("rubis", n_requests, seed)
    return FigureResult(
        "Figure 14", "RUBiS request rate", "req/s", "higher",
        _metric(runs, lambda r: r.requests_per_s),
        paperdata.FIG14_RUBIS_RPS, runs, specs)


# ----------------------------------------------------------------------
# Multi-VM: Figures 15, 16
# ----------------------------------------------------------------------

def figure15(per_vm_requests: int = MULTIVM_REQUESTS,
             n_vms: int = MULTIVM_VMS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("tpcc", per_vm_requests, seed, n_vms=n_vms)
    measured = normalize(_metric(runs, lambda r: r.transactions_per_s))
    return FigureResult(
        "Figure 15", f"{n_vms} TPC-C VMs, normalised transaction rate",
        "x fusion-io", "higher", measured,
        paperdata.FIG15_TPCC_5VMS_NORM, runs, specs)


def figure16(per_vm_requests: int = MULTIVM_REQUESTS,
             n_vms: int = MULTIVM_VMS,
             seed: int = DEFAULT_SEED) -> FigureResult:
    runs, specs = _grid("rubis", per_vm_requests, seed, n_vms=n_vms)
    measured = normalize(_metric(runs, lambda r: r.requests_per_s))
    return FigureResult(
        "Figure 16", f"{n_vms} RUBiS VMs, normalised request rate",
        "x fusion-io", "higher", measured,
        paperdata.FIG16_RUBIS_5VMS_NORM, runs, specs)


# ----------------------------------------------------------------------
# Tables 5 and 6
# ----------------------------------------------------------------------

def table5(n_requests: int = DEFAULT_REQUESTS,
           seed: int = DEFAULT_SEED) -> Dict[str, FigureResult]:
    """Energy (Wh) for Hadoop and TPC-C, per architecture."""
    out: Dict[str, FigureResult] = {}
    for bench in ("hadoop", "tpcc"):
        runs, specs = _grid(bench, n_requests, seed)
        out[bench] = FigureResult(
            "Table 5", f"Energy for {bench}", "Wh", "lower",
            _metric(runs, lambda r: r.energy.total_wh),
            paperdata.TABLE5_ENERGY_WH[bench], runs, specs)
    return out


def table6(n_requests: int = DEFAULT_REQUESTS,
           seed: int = DEFAULT_SEED) -> Dict[str, FigureResult]:
    """Runtime SSD write operations for the four write-heavy benchmarks."""
    out: Dict[str, FigureResult] = {}
    for bench in ("sysbench", "hadoop", "tpcc", "specsfs"):
        runs, specs = _grid(bench, n_requests, seed)
        measured = {name: float(run.ssd_write_ops)
                    for name, run in runs.items() if name != "raid0"}
        out[bench] = FigureResult(
            "Table 6", f"SSD write requests, {bench}", "writes", "lower",
            measured, paperdata.TABLE6_SSD_WRITES[bench], runs, specs)
    return out


#: Every single-result figure, for "run them all" loops.
ALL_FIGURES: Dict[str, Callable[[], FigureResult]] = {
    "figure6a": figure6a,
    "figure6b": figure6b,
    "figure8a": figure8a,
    "figure8b": figure8b,
    "figure10a": figure10a,
    "figure10b": figure10b,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "figure15": figure15,
    "figure16": figure16,
}
