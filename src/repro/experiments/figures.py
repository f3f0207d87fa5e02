"""One entry point per series of the paper's evaluation.

Each :class:`Series` row of :data:`SERIES` names the workload grid a
figure or table reads, how it reads one run, the paper's numbers and
the least shape it must keep.  :data:`ALL_FIGURES` turns every row into
a callable that runs the grid across the five architectures (sharing
runs between every series of the same benchmark) and returns a
:class:`FigureResult` holding the measured values, the paper's published
values, and rendering/shape-check helpers.

Absolute values are not expected to match the paper (the substrate is a
simulator, the workloads synthetic, the scale 1/30th); the deliverable is
the *shape*: who wins, by roughly what factor, and where the crossovers
fall.  :meth:`FigureResult.shape_score` quantifies exactly that — the
fraction of the paper's pairwise system orderings the reproduction
preserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
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
    #: The least shape score the series must keep (0 when it is judged
    #: by its headline claims alone).
    floor: float = 0.0

    def shape_score(self) -> float:
        """Fraction of the paper's pairwise orderings preserved."""
        return shape_score(self.measured, self.paper)

    def render(self) -> str:
        table = comparison_table(
            f"{self.figure}: {self.title}", SYSTEM_NAMES, self.measured,
            self.paper, self.metric, self.better)
        return table + "\n" + render_shape_check(self.measured, self.paper)


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

def grid_requirements(names, n_requests: int = DEFAULT_REQUESTS,
                      seed: int = DEFAULT_SEED):
    """The distinct grid cells the named figures will consult.

    Returns ``[(cache_key, system_name, RunSpec), ...]`` — one entry per
    (grid, system) pair, deduplicated, in deterministic order.
    """
    cells = []
    seen = set()
    for name in names:
        series = SERIES.get(name)
        if series is None:
            raise KeyError(f"unknown figure {name!r}")
        if series.multivm:
            key, specs = _cells(series.family, MULTIVM_REQUESTS, seed,
                                n_vms=MULTIVM_VMS)
        else:
            key, specs = _cells(series.family, n_requests, seed)
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


# ----------------------------------------------------------------------
# The registry: one row per series of Section 5, in EXPERIMENTS.md order
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Series:
    """One series of the paper's evaluation and how it is judged."""

    figure: str
    #: ``{n_vms}`` in a multi-VM title is the run's image count.
    title: str
    metric: str
    better: str
    #: The workload whose grid the series reads.
    family: str
    #: The :class:`RunResult` attribute (dotted) plotted per system.
    value: str
    paper: Dict[str, float]
    floor: float
    #: Cloned-image runs, normalised to fusion-io (Figures 15 and 16).
    multivm: bool = False
    #: A system the paper has no number for (Table 6 has no RAID0).
    exclude: str = ""

    def result(self, runs: Dict[str, RunResult], specs: Dict[str, RunSpec],
               n_vms: int = 0) -> FigureResult:
        get = attrgetter(self.value)
        measured = {name: float(get(run)) for name, run in runs.items()
                    if name != self.exclude}
        if self.multivm:
            measured = normalize(measured)
        return FigureResult(self.figure, self.title.format(n_vms=n_vms),
                            self.metric, self.better, measured, self.paper,
                            runs, specs, self.floor)


SERIES: Dict[str, Series] = {
    "figure6a": Series(
        "Figure 6(a)", "SysBench transaction rate", "tx/s", "higher",
        "sysbench", "transactions_per_s", paperdata.FIG6A_SYSBENCH_TPS,
        0.9),
    "figure6b": Series(
        "Figure 6(b)", "SysBench CPU utilisation", "fraction", "lower",
        "sysbench", "cpu_utilization", paperdata.FIG6B_SYSBENCH_CPU, 0.0),
    "figure7read": Series(
        "Figure 7 (read)", "SysBench read response time", "µs", "lower",
        "sysbench", "read_mean_us", paperdata.FIG7_SYSBENCH_READ_US, 0.6),
    "figure7write": Series(
        "Figure 7 (write)", "SysBench write response time", "µs", "lower",
        "sysbench", "write_mean_us", paperdata.FIG7_SYSBENCH_WRITE_US, 0.6),
    "figure8a": Series(
        "Figure 8(a)", "Hadoop execution time", "s", "lower",
        "hadoop", "wall_time_s", paperdata.FIG8A_HADOOP_TIME_S, 0.6),
    "figure8b": Series(
        "Figure 8(b)", "Hadoop CPU utilisation", "fraction", "lower",
        "hadoop", "cpu_utilization", paperdata.FIG8B_HADOOP_CPU, 0.0),
    "figure9read": Series(
        "Figure 9 (read)", "Hadoop read response time", "µs", "lower",
        "hadoop", "read_mean_us", paperdata.FIG9_HADOOP_READ_US, 0.5),
    "figure9write": Series(
        "Figure 9 (write)", "Hadoop write response time", "µs", "lower",
        "hadoop", "write_mean_us", paperdata.FIG9_HADOOP_WRITE_US, 0.5),
    "figure10a": Series(
        "Figure 10(a)", "TPC-C transaction rate", "tx/s", "higher",
        "tpcc", "transactions_per_s", paperdata.FIG10A_TPCC_TPS, 0.9),
    "figure10b": Series(
        "Figure 10(b)", "TPC-C CPU utilisation", "fraction", "lower",
        "tpcc", "cpu_utilization", paperdata.FIG10B_TPCC_CPU, 0.0),
    "figure11": Series(
        "Figure 11", "TPC-C application response time", "ms", "lower",
        "tpcc", "tx_response_ms", paperdata.FIG11_TPCC_RSP_MS, 0.7),
    "figure12": Series(
        "Figure 12", "LoadSim score (response-time based)", "score",
        "lower", "loadsim", "loadsim_score",
        paperdata.FIG12_LOADSIM_SCORE, 0.6),
    "figure13": Series(
        "Figure 13", "SPEC-sfs response time", "ms", "lower",
        "specsfs", "io_response_ms", paperdata.FIG13_SPECSFS_RSP_MS, 0.5),
    "figure14": Series(
        "Figure 14", "RUBiS request rate", "req/s", "higher",
        "rubis", "requests_per_s", paperdata.FIG14_RUBIS_RPS, 0.8),
    "figure15": Series(
        "Figure 15", "{n_vms} TPC-C VMs, normalised transaction rate",
        "x fusion-io", "higher", "tpcc", "transactions_per_s",
        paperdata.FIG15_TPCC_5VMS_NORM, 0.9, multivm=True),
    "figure16": Series(
        "Figure 16", "{n_vms} RUBiS VMs, normalised request rate",
        "x fusion-io", "higher", "rubis", "requests_per_s",
        paperdata.FIG16_RUBIS_5VMS_NORM, 0.9, multivm=True),
    **{f"table5{family}": Series(
        "Table 5", f"Energy for {family}", "Wh", "lower", family,
        "energy.total_wh", paperdata.TABLE5_ENERGY_WH[family], 0.5)
       for family in ("hadoop", "tpcc")},
    # Table 6 counts runtime SSD writes; RAID0 has no SSD.
    **{f"table6{family}": Series(
        "Table 6", f"SSD write requests, {family}", "writes", "lower",
        family, "ssd_write_ops", paperdata.TABLE6_SSD_WRITES[family],
        0.5 if family == "specsfs" else 1.0, exclude="raid0")
       for family in ("sysbench", "hadoop", "tpcc", "specsfs")},
}


def _entry(series: Series) -> Callable[..., FigureResult]:
    """The callable behind one :data:`ALL_FIGURES` name.  A multi-VM
    series is sized per VM (``per_vm_requests``, ``n_vms``), every other
    one per run (``n_requests``)."""
    if series.multivm:
        def figure(per_vm_requests: int = MULTIVM_REQUESTS,
                   n_vms: int = MULTIVM_VMS,
                   seed: int = DEFAULT_SEED) -> FigureResult:
            runs, specs = _grid(series.family, per_vm_requests, seed,
                                n_vms=n_vms)
            return series.result(runs, specs, n_vms)
    else:
        def figure(n_requests: int = DEFAULT_REQUESTS,
                   seed: int = DEFAULT_SEED) -> FigureResult:
            return series.result(*_grid(series.family, n_requests, seed))
    return figure


#: Every series, for "run them all" loops.
ALL_FIGURES: Dict[str, Callable[..., FigureResult]] = {
    name: _entry(series) for name, series in SERIES.items()}


def run_figure(name: str, n_requests: Optional[int] = None
               ) -> FigureResult:
    """Series ``name`` at ``n_requests`` per run (its default when
    ``None``); a multi-VM series keeps its per-VM defaults."""
    if n_requests is None or SERIES[name].multivm:
        return ALL_FIGURES[name]()
    return ALL_FIGURES[name](n_requests=n_requests)
