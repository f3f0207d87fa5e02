"""Tests for the experiment harness: systems factory, runner, reporting."""

import pytest

from repro.baselines import PureSSD
from repro.core import ICASHController
from repro.experiments import paperdata
from repro.experiments.report import (comparison_table, normalize,
                                      render_shape_check, shape_check,
                                      shape_score)
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import SYSTEM_NAMES, make_system
from repro.workloads import SysBenchWorkload


def tiny_workload(**kwargs):
    defaults = dict(scale=0.05, n_requests=300)
    defaults.update(kwargs)
    return SysBenchWorkload(**defaults)


class TestSystemsFactory:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_every_architecture_builds(self, name):
        system = make_system(name, tiny_workload())
        assert system.capacity_blocks == tiny_workload().n_blocks

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            make_system("zfs", tiny_workload())

    def test_icash_gets_paper_style_budgets(self):
        workload = tiny_workload()
        system = make_system("icash", workload)
        assert isinstance(system, ICASHController)
        assert system.config.ssd_capacity_blocks \
            == workload.ssd_budget_blocks

    def test_fusion_io_holds_whole_dataset(self):
        workload = tiny_workload()
        system = make_system("fusion-io", workload)
        assert isinstance(system, PureSSD)
        assert system.ssd.capacity_blocks == workload.n_blocks


class TestRunner:
    def test_run_produces_complete_result(self):
        workload = tiny_workload()
        system = make_system("fusion-io", workload)
        result = run_benchmark(workload, system, warmup_fraction=0.3)
        assert result.n_requests == 300
        assert result.n_measured == 210
        assert result.wall_time_s > 0
        assert result.transactions_per_s > 0
        assert result.read_mean_us > 0
        assert result.energy.total_wh >= 0
        assert 0 <= result.cpu_utilization <= 1

    def test_verified_run_checks_content(self):
        workload = tiny_workload()
        system = make_system("icash", workload)
        result = run_benchmark(workload, system, verify_reads=True)
        assert result.verified_reads > 0

    def test_warmup_excluded_from_measurement(self):
        workload = tiny_workload()
        system = make_system("fusion-io", workload)
        result = run_benchmark(workload, system, warmup_fraction=0.5)
        assert result.n_measured == 150
        assert result.full_wall_time_s >= result.wall_time_s

    def test_preload_writes_not_counted_as_runtime(self):
        workload = tiny_workload()
        system = make_system("fusion-io", workload)
        result = run_benchmark(workload, system, preload=True)
        # The ingest wrote every block, but the reported count only
        # covers the benchmark itself.
        assert result.ssd_write_ops < workload.n_blocks

    def test_invalid_warmup_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(tiny_workload(),
                          make_system("fusion-io", tiny_workload()),
                          warmup_fraction=1.0)

    def test_tx_response_and_scores_positive(self):
        workload = tiny_workload()
        system = make_system("raid0", workload)
        result = run_benchmark(workload, system)
        assert result.tx_response_ms > 0
        assert result.loadsim_score == pytest.approx(
            result.tx_response_ms * 1e3)


class TestOneDescriptionOfARun:
    """A run is a RunSpec: no driver also takes a workload factory,
    and one name -> class mapping serves every consumer."""

    def test_no_public_callable_takes_a_factory_or_a_base_spec(self):
        import importlib
        import inspect
        import pkgutil

        import repro.experiments as package

        offenders = []
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(
                f"{package.__name__}.{info.name}")
            for name, fn in inspect.getmembers(module,
                                               inspect.isfunction):
                if name.startswith("_") \
                        or fn.__module__ != module.__name__:
                    continue
                taken = {"workload_factory", "base_spec"} \
                    & set(inspect.signature(fn).parameters)
                if taken:
                    offenders.append((fn.__module__, name,
                                      sorted(taken)))
        assert offenders == []

    def test_one_workload_mapping(self):
        import pathlib

        import repro
        from repro import cli, workloads

        assert workloads.WORKLOADS \
            == {cls.name: cls for cls in workloads.ALL_WORKLOADS}
        assert cli.WORKLOADS is workloads.WORKLOADS
        rebuilt = [path for path
                   in pathlib.Path(repro.__file__).parent.rglob("*.py")
                   if "for cls in ALL_WORKLOADS}" in path.read_text()]
        assert [path.name for path in rebuilt] == ["__init__.py"]
        assert rebuilt[0].parent.name == "workloads"


class TestOneObserverConvention:
    """An absent observer is ``None`` and background work is declared
    through one helper — checked on the source, so neither a second
    convention nor a hand-paired clock can grow back unnoticed."""

    @staticmethod
    def _sites(pattern, *roots):
        """``(path relative to src/repro, enclosing function)`` of every
        line under ``roots`` matching ``pattern``."""
        import ast
        import pathlib
        import re

        import repro

        package = pathlib.Path(repro.__file__).parent
        found = []
        for root in roots:
            top = package / root
            for path in sorted([top] if top.is_file()
                               else top.rglob("*.py")):
                source = path.read_text()
                if not re.search(pattern, source):
                    continue
                functions = [node for node in ast.walk(ast.parse(source))
                             if isinstance(node, ast.FunctionDef)]
                for number, line in enumerate(source.splitlines(), 1):
                    if not re.search(pattern, line):
                        continue
                    inside = [f for f in functions
                              if f.lineno <= number <= f.end_lineno]
                    owner = max(inside, key=lambda f: f.lineno).name \
                        if inside else None
                    found.append((path.relative_to(package).as_posix(),
                                  owner))
        return found

    def test_no_null_object_is_exported(self):
        import importlib
        import re

        leftovers = [
            (name, attr)
            for name in ("repro.sim", "repro.sim.trace",
                         "repro.sim.metrics", "repro.sim.profile",
                         "repro.ledger")
            for attr in dir(importlib.import_module(name))
            if re.search(r"NULL_[A-Z]+|Null[A-Z]\w+", attr)]
        assert leftovers == []

    def test_nothing_reads_an_enabled_flag(self):
        assert self._sites(r"\.enabled\b|\benabled = ", "") == []

    def test_background_time_grows_in_the_helper_only(self):
        assert self._sites(r"background_time \+=", "") == [
            ("baselines/base.py", "_in_background"),
            ("core/controller.py", "_run_scan")]  # the scan's CPU time

    def test_model_code_opens_background_scopes_in_the_helper_only(self):
        assert self._sites(r"begin_background\(", "baselines",
                           "core") == [
            ("baselines/base.py", "_in_background"),
            ("core/controller.py", "_run_scan")]


class TestReporting:
    MEASURED = {"fusion-io": 10.0, "raid0": 2.0, "icash": 12.0}
    PAPER = {"fusion-io": 180.0, "raid0": 85.0, "icash": 190.0}

    def test_comparison_table_renders_rows(self):
        text = comparison_table("T", ["fusion-io", "raid0", "icash"],
                                self.MEASURED, self.PAPER, "tx/s", "higher")
        assert "fusion-io" in text
        assert "tx/s" in text
        assert "paper" in text

    def test_normalize(self):
        normalized = normalize(self.MEASURED)
        assert normalized["fusion-io"] == 1.0
        assert normalized["icash"] == pytest.approx(1.2)

    def test_normalize_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalize({"icash": 1.0})

    def test_shape_check_all_preserved(self):
        checks = shape_check(self.MEASURED, self.PAPER)
        assert checks and all(checks.values())
        assert shape_score(self.MEASURED, self.PAPER) == 1.0

    def test_shape_check_detects_flips(self):
        flipped = dict(self.MEASURED)
        flipped["raid0"] = 100.0  # now beats fusion-io, unlike the paper
        checks = shape_check(flipped, self.PAPER)
        assert not all(checks.values())
        assert shape_score(flipped, self.PAPER) < 1.0

    def test_render_shape_check(self):
        text = render_shape_check(self.MEASURED, self.PAPER)
        assert "pairwise orderings preserved" in text


class TestPaperData:
    def test_all_figures_cover_five_systems(self):
        for table in (paperdata.FIG6A_SYSBENCH_TPS,
                      paperdata.FIG10A_TPCC_TPS,
                      paperdata.FIG12_LOADSIM_SCORE,
                      paperdata.FIG14_RUBIS_RPS):
            assert set(table) == set(paperdata.SYSTEMS)

    def test_headline_claims_encoded(self):
        # I-CASH beats everything on SysBench (Figure 6a)...
        fig6a = paperdata.FIG6A_SYSBENCH_TPS
        assert fig6a["icash"] == max(fig6a.values())
        # ...loses to pure SSD on LoadSim (Figure 12, lower=better)...
        fig12 = paperdata.FIG12_LOADSIM_SCORE
        assert fig12["fusion-io"] < fig12["icash"]
        # ...and wins 2.8x on five TPC-C VMs (Figure 15).
        assert paperdata.FIG15_TPCC_5VMS_NORM["icash"] == pytest.approx(2.8)

    def test_table6_has_no_raid_column(self):
        for bench in paperdata.TABLE6_SSD_WRITES.values():
            assert "raid0" not in bench
