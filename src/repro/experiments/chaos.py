"""The chaos scenario matrix: every fault class against every core
workload, judged against SLO breach budgets.

Each :class:`ChaosScenario` runs one :mod:`repro.sim.faults` fault kind
against the I-CASH element under open-loop load (60 % of the
calibrated saturation rate, so the array has realistic headroom for
repair traffic), with the SLO monitor watching every window.  The
verdict is pass/fail against the scenario's budget:

* SLO breach windows (read/write p99, delta-log high water) must stay
  within ``breach_budget``;
* the degraded-mode window must close within ``max_recovery_s`` of
  event time;
* a ``power_loss`` data-loss window must stay within
  ``max_loss_blocks`` unflushed deltas;
* ``silent_corruption`` on signed references must be *detected*.

The matrix, budgets and metric definitions are documented in
``docs/RELIABILITY.md``; a doc-parity test keeps scenario IDs and
budgets in lock-step with this module.  Everything is deterministic:
same seed, same verdicts, byte-identical JSONL — ``repro chaos`` is a
CI gate, not a dice roll.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.sweeps import calibrate_capacity
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import record_run, run_benchmark
from repro.sim.faults import FAULT_KINDS, FaultPlan
from repro.sim.metrics import Monitor, SLORule, default_slo_rules

__all__ = [
    "ChaosScenario",
    "ChaosVerdict",
    "ChaosReport",
    "SCENARIOS",
    "quick_scenarios",
    "run_scenario",
    "run_matrix",
    "export_chaos_jsonl",
]

#: Short scenario-ID slug per fault kind.
KIND_SLUGS = {
    "ssd_wearout": "wearout",
    "hdd_failure": "hddfail",
    "power_loss": "powerloss",
    "silent_corruption": "corrupt",
}

#: Workload columns of the matrix (the paper's three core benchmarks).
CHAOS_WORKLOADS = ("sysbench", "tpcc", "loadsim")

#: Offered load as a fraction of calibrated saturation throughput.
LOAD_FRACTION = 0.6


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the matrix: a fault kind under a workload."""

    scenario_id: str
    fault_kind: str
    workload: str
    #: SLO breach windows tolerated before the scenario fails.
    breach_budget: int
    #: Degraded-mode window must close within this much event time.
    max_recovery_s: float
    #: ``power_loss`` only: unflushed deltas allowed at the crash.
    max_loss_blocks: Optional[int] = None
    #: ``silent_corruption`` only: the scrub must catch the damage.
    must_detect: bool = False


def _budget(kind: str):
    """Per-kind budgets — documented in docs/RELIABILITY.md."""
    return {
        "ssd_wearout": dict(breach_budget=4, max_recovery_s=10.0),
        "hdd_failure": dict(breach_budget=6, max_recovery_s=30.0),
        "power_loss": dict(breach_budget=4, max_recovery_s=10.0,
                           max_loss_blocks=512),
        "silent_corruption": dict(breach_budget=4, max_recovery_s=10.0,
                                  must_detect=True),
    }[kind]


#: The full matrix: every fault class against every core workload.
SCENARIOS = tuple(
    ChaosScenario(scenario_id=f"{KIND_SLUGS[kind]}-{workload}",
                  fault_kind=kind, workload=workload, **_budget(kind))
    for kind in FAULT_KINDS
    for workload in CHAOS_WORKLOADS)


def quick_scenarios() -> Sequence[ChaosScenario]:
    """One scenario per fault class (the CI smoke set)."""
    return tuple(s for s in SCENARIOS if s.workload == "sysbench")


def scenario_rules() -> List[SLORule]:
    """The chaos rule set: the stock latency SLOs, which hold with a
    rebuild included, plus log headroom up to a 0.95 high-water mark.

    The stock ``ssd_daily_write_budget`` rule is deliberately absent —
    it judges lifetime burn rate, which the ``ssd_wearout`` injector
    measures directly, and its scaled-rate form flags short dense runs
    spuriously.
    """
    return [replace(rule, threshold=0.95)
            if rule.name == "delta_log_high_water" else rule
            for rule in default_slo_rules()
            if rule.name != "ssd_daily_write_budget"]


@dataclass
class ChaosVerdict:
    """One scenario's measured outcome and pass/fail judgement."""

    scenario_id: str
    fault_kind: str
    workload: str
    passed: bool
    breaches: int
    breach_budget: int
    recovery_s: float
    max_recovery_s: float
    rebuild_blocks: int
    #: p99 read latency (µs) of the measured window containing the
    #: fault — the "rebuild p99" of the reliability model.
    rebuild_p99_us: float
    loss_window_blocks: Optional[int] = None
    detected: Optional[bool] = None
    notes: str = ""

    def to_payload(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "fault_kind": self.fault_kind,
            "workload": self.workload,
            "passed": self.passed,
            "breaches": self.breaches,
            "breach_budget": self.breach_budget,
            "recovery_s": round(self.recovery_s, 9),
            "max_recovery_s": self.max_recovery_s,
            "rebuild_blocks": self.rebuild_blocks,
            "rebuild_p99_us": round(self.rebuild_p99_us, 3),
            "loss_window_blocks": self.loss_window_blocks,
            "detected": self.detected,
            "notes": self.notes,
        }


@dataclass
class ChaosReport:
    """All verdicts of one matrix run."""

    seed: int
    n_requests: int
    verdicts: List[ChaosVerdict]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def n_failed(self) -> int:
        return sum(1 for v in self.verdicts if not v.passed)

    def render(self) -> str:
        """ASCII matrix, one row per scenario."""
        header = (f"{'scenario':<20} {'workload':<9} {'fault':<18} "
                  f"{'breach':>6} {'budget':>6} {'recov_s':>8} "
                  f"{'rebuild':>8} {'loss':>5} {'detect':>6} verdict")
        lines = [
            f"chaos matrix  (seed {self.seed}, "
            f"{self.n_requests} requests/run, "
            f"{LOAD_FRACTION:.0%} of saturation)",
            header,
            "-" * len(header),
        ]
        for v in self.verdicts:
            loss = "-" if v.loss_window_blocks is None \
                else str(v.loss_window_blocks)
            detect = "-" if v.detected is None \
                else ("yes" if v.detected else "MISS")
            lines.append(
                f"{v.scenario_id:<20} {v.workload:<9} "
                f"{v.fault_kind:<18} {v.breaches:>6} "
                f"{v.breach_budget:>6} {v.recovery_s:>8.3f} "
                f"{v.rebuild_blocks:>8} {loss:>5} {detect:>6} "
                f"{'PASS' if v.passed else 'FAIL'}")
        lines.append("-" * len(header))
        lines.append(
            f"{len(self.verdicts)} scenario(s), "
            f"{self.n_failed} failed"
            + ("" if self.n_failed else " — production-ready"))
        return "\n".join(lines)


def _scenario_spec(scenario: ChaosScenario, n_requests: int) -> RunSpec:
    """The scenario's workload on the I-CASH element, before a load
    is chosen."""
    return RunSpec(workload=scenario.workload, n_requests=n_requests,
                   engine="event")


def run_scenario(scenario: ChaosScenario, seed: int = 1234,
                 n_requests: int = 2000,
                 capacity_rps: Optional[float] = None,
                 ledger=None) -> ChaosVerdict:
    """Run one scenario and judge it.

    ``capacity_rps`` skips the calibration run when the caller already
    measured this workload's saturation rate (``run_matrix`` caches it
    per workload column).

    ``ledger`` (a :class:`repro.ledger.LedgerWriter`) records the
    scenario's run — provenance, metric snapshot, fault outcomes —
    plus the verdict under ``command="chaos"``.
    """
    spec = _scenario_spec(scenario, n_requests)
    if capacity_rps is None:
        capacity_rps = calibrate_capacity(spec)
    spec = replace(spec, load=("open", LOAD_FRACTION * capacity_rps,
                               "poisson", seed))
    # A monitor and a fault plan are live objects no worker can be
    # sent, so this run stays in-process, built from its spec.
    workload = spec.build_workload()
    result = run_benchmark(
        workload, spec.build_system(workload), engine=spec.engine,
        load=spec.build_load(),
        monitor=Monitor(interval_s=0.02, rules=scenario_rules()),
        fault_plan=FaultPlan.single(scenario.fault_kind,
                                    at_request=n_requests // 2,
                                    seed=seed))
    report = result.faults
    outcome = report.outcomes[0]

    breaches = len(result.slo_breaches)
    recovery_s = outcome.degraded_s
    notes = []
    passed = True
    if outcome.skipped:
        passed = False
        notes.append(f"fault skipped: {outcome.detail}")
    if breaches > scenario.breach_budget:
        passed = False
        notes.append(f"{breaches} SLO breaches > budget "
                     f"{scenario.breach_budget}")
    if recovery_s > scenario.max_recovery_s:
        passed = False
        notes.append(f"recovery {recovery_s:.3f}s > "
                     f"{scenario.max_recovery_s}s")
    if scenario.max_loss_blocks is not None and \
            (outcome.data_loss_window_blocks or 0) > \
            scenario.max_loss_blocks:
        passed = False
        notes.append(f"loss window {outcome.data_loss_window_blocks} "
                     f"blk > {scenario.max_loss_blocks}")
    if scenario.must_detect and not outcome.detected:
        passed = False
        notes.append("corruption NOT detected")
    verdict = ChaosVerdict(
        scenario_id=scenario.scenario_id,
        fault_kind=scenario.fault_kind,
        workload=scenario.workload,
        passed=passed,
        breaches=breaches,
        breach_budget=scenario.breach_budget,
        recovery_s=recovery_s,
        max_recovery_s=scenario.max_recovery_s,
        rebuild_blocks=outcome.rebuild_blocks,
        rebuild_p99_us=result.read_p99_us,
        loss_window_blocks=outcome.data_loss_window_blocks,
        detected=outcome.detected,
        notes="; ".join(notes))
    record_run(ledger, result, "chaos", spec,
               extra={"scenario": scenario.scenario_id,
                      "fault_kind": scenario.fault_kind,
                      "passed": verdict.passed,
                      "breaches": verdict.breaches,
                      "recovery_s": round(verdict.recovery_s, 9)})
    return verdict


def run_matrix(scenarios: Sequence[ChaosScenario] = SCENARIOS,
               seed: int = 1234, n_requests: int = 2000,
               progress=None, ledger=None) -> ChaosReport:
    """Run a scenario set; calibration is cached per workload column."""
    capacity_cache: Dict[str, float] = {}
    verdicts: List[ChaosVerdict] = []
    for scenario in scenarios:
        if scenario.workload not in capacity_cache:
            capacity_cache[scenario.workload] = calibrate_capacity(
                _scenario_spec(scenario, n_requests))
        if progress is not None:
            progress(f"chaos: {scenario.scenario_id} ...")
        verdicts.append(run_scenario(
            scenario, seed=seed, n_requests=n_requests,
            capacity_rps=capacity_cache[scenario.workload],
            ledger=ledger))
    return ChaosReport(seed=seed, n_requests=n_requests,
                       verdicts=verdicts)


def export_chaos_jsonl(report: ChaosReport, dest) -> int:
    """Write the report as JSONL: one meta line, one line per verdict.

    Returns the number of lines written.  Deterministic — no
    timestamps, stable key order — so CI can diff two runs.
    """
    path = Path(dest)
    lines = [json.dumps({"meta": {
        "kind": "chaos_report", "seed": report.seed,
        "n_requests": report.n_requests,
        "scenarios": len(report.verdicts),
        "failed": report.n_failed}}, sort_keys=True)]
    lines.extend(json.dumps(v.to_payload(), sort_keys=True)
                 for v in report.verdicts)
    path.write_text("\n".join(lines) + "\n")
    return len(lines)
