"""The persistent run ledger (``repro.ledger``; docs/LEDGER.md).

Four families of guarantees:

* **recording** — every entry point leaves a row carrying the full
  provenance and metric snapshot the schema promises, opt-out really
  records nothing, and re-recording identical work reuses the same
  content-hash ``run_id``;
* **determinism** — the canonical export is byte-identical whether a
  suite ran serially or fanned out across worker processes, and
  concurrent recorders from separate processes cannot corrupt the
  store;
* **analytics** — diffs surface metric deltas with provenance-aware
  hints, and the rolling median/MAD anomaly detector flags exactly the
  injected change among identical-seed reruns;
* **maintenance** — the store is one JSONL file: ``verify`` catches
  tampering, other schema versions and a torn final line, which the
  next append truncates; a line that is not a row fails naming it;
  ``prune`` retains only the newest rows, even racing a recorder.
"""

import json
import multiprocessing
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import pytest

from repro import ledger as ledger_module
from repro.experiments.parallel import RunSpec
from repro.ledger import (ANOMALY_Z, DEFAULT_WINDOW, FILTER_KEYS,
                          LEDGER_SCHEMA_VERSION, MIN_HISTORY,
                          PROVENANCE_FIELDS, SPEC_FIELDS, Anomaly,
                          LedgerWriter, default_ledger, detect_anomalies,
                          diff_rows, flatten_metrics, parse_filters,
                          sparkline)


# ---------------------------------------------------------------------------
# Small cached runs (module-wide; the ledger only reads RunResults)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _small_result(seed: int = 2011, delta_accept: int = 0,
                  engine: str = "legacy"):
    from repro.core import ICASHController
    from repro.experiments.runner import run_benchmark
    from repro.experiments.systems import make_icash_config, make_system
    from repro.workloads import SysBenchWorkload

    workload = SysBenchWorkload(scale=0.05, n_requests=300, seed=seed)
    if delta_accept:
        config = replace(make_icash_config(workload),
                         delta_accept_bytes=delta_accept)
        system = ICASHController(workload.build_dataset(), config)
    else:
        system = make_system("icash", workload)
    return run_benchmark(workload, system, engine=engine)


#: The declarative twin of ``_small_result()``'s default run.
_SMALL_SPEC = RunSpec(workload="sysbench", scale=0.05, n_requests=300)


def _recipe(row):
    """The spec fields a result alone cannot supply."""
    return {key: row.spec[key] for key in (
        "seed", "scale", "n_vms", "warmup_fraction", "load")}


def _writer(tmp_path, name="led", **kwargs) -> LedgerWriter:
    return LedgerWriter(root=str(tmp_path / name), **kwargs)


# ---------------------------------------------------------------------------
# Recording and querying
# ---------------------------------------------------------------------------


class TestRecord:
    def test_identical_content_reuses_run_id(self, tmp_path):
        store = _writer(tmp_path)
        first = store.record(_small_result(), command="run",
                             spec={"seed": 2011})
        second = store.record(_small_result(), command="run",
                              spec={"seed": 2011})
        assert first == second
        assert len(first) == 16
        assert store.count() == 2
        assert [row.seq for row in store.rows()] == [1, 2]

    def test_content_changes_change_run_id(self, tmp_path):
        store = _writer(tmp_path)
        a = store.record(_small_result(), command="run",
                         spec={"seed": 2011})
        b = store.record(_small_result(seed=7), command="run",
                         spec={"seed": 7})
        c = store.record(_small_result(), command="other",
                         spec={"seed": 2011})
        assert len({a, b, c}) == 3

    def test_row_carries_schema_provenance_and_spec(self, tmp_path):
        store = _writer(tmp_path)
        store.record(_small_result(), command="run", spec={"seed": 2011})
        row = store.get("1")
        assert row.schema_version == LEDGER_SCHEMA_VERSION
        assert tuple(sorted(row.provenance)) \
            == tuple(sorted(PROVENANCE_FIELDS))
        assert tuple(sorted(row.spec)) == tuple(sorted(SPEC_FIELDS))
        assert row.spec["workload"] == "sysbench"
        assert row.spec["system"] == "icash"
        assert row.spec["seed"] == 2011
        assert row.provenance["schema"]["ledger"] \
            == LEDGER_SCHEMA_VERSION
        assert row.provenance["sim_wall_s"] > 0
        assert set(row.provenance["host"]) \
            == {"node", "machine", "system", "python"}
        assert "transactions_per_s" in row.metrics["scalars"]
        assert row.metrics["slo"]["breaches"] >= 0
        assert row.volatile["recorded_unix"] > 0

    def test_volatile_fields_do_not_feed_the_hash(self, tmp_path):
        early = _writer(tmp_path, "a", clock=lambda: 1000.0)
        late = _writer(tmp_path, "b", clock=lambda: 2000.0)
        run_a = early.record(_small_result(), command="run",
                             spec={"seed": 2011}, host_wall_s=1.0)
        run_b = late.record(_small_result(), command="run",
                            spec={"seed": 2011}, host_wall_s=9.9)
        assert run_a == run_b
        assert early.get("1").volatile != late.get("1").volatile

    def test_filters_and_last(self, tmp_path):
        store = _writer(tmp_path)
        store.record(_small_result(), command="run", spec={"seed": 2011})
        store.record(_small_result(seed=7), command="run",
                     spec={"seed": 7})
        store.record(_small_result(), command="bench",
                     spec={"seed": 2011})
        assert len(store.rows({"command": "run"})) == 2
        assert len(store.rows({"command": "run", "seed": 2011})) == 1
        assert len(store.rows({"workload": "sysbench"})) == 3
        newest = store.rows(last=2)
        assert [row.seq for row in newest] == [2, 3]
        with pytest.raises(ValueError, match="unknown filter"):
            store.rows({"figure": "6a"})

    def test_get_by_seq_prefix_and_ambiguity(self, tmp_path):
        store = _writer(tmp_path)
        run_a = store.record(_small_result(), command="run",
                             spec={"seed": 2011})
        run_b = store.record(_small_result(seed=7), command="run",
                             spec={"seed": 7})
        assert store.get("1").run_id == run_a
        assert store.get(run_b).seq == 2
        assert store.get(run_a[:8]).run_id == run_a
        common = os.path.commonprefix([run_a, run_b])
        with pytest.raises(KeyError, match="ambiguous"):
            store.get(common)
        # A digit-only ref that is no seq is tried as a run-id prefix,
        # so pick one that neither (commit-dependent) id starts with.
        no_seq = next(ref for ref in ("97", "98", "99")
                      if not run_a.startswith(ref)
                      and not run_b.startswith(ref))
        with pytest.raises(KeyError, match="no ledger row"):
            store.get(no_seq)
        with pytest.raises(KeyError, match="no ledger row"):
            store.get("feedfacefeedface")

    def test_get_all_digit_prefix_falls_through_to_run_id(
            self, tmp_path, monkeypatch):
        # Run ids are hex, so an 8-character prefix is all digits for
        # about one commit in forty; it must not be mistaken for a seq.
        monkeypatch.setattr(ledger_module, "run_id_for",
                            lambda body: "2650563600000000")
        store = _writer(tmp_path)
        run_id = store.record(_small_result(), command="run",
                              spec={"seed": 2011})
        assert run_id == "2650563600000000"
        assert store.get("26505636").run_id == run_id
        # A seq hit still wins over a prefix reading of the same digits.
        monkeypatch.setattr(ledger_module, "run_id_for",
                            lambda body: "1000000000000000")
        store.record(_small_result(seed=7), command="run",
                     spec={"seed": 7})
        assert store.get("1").run_id == run_id

    def test_parse_filters(self):
        assert parse_filters(["workload=tpcc", "seed=7"]) \
            == {"workload": "tpcc", "seed": "7"}
        assert parse_filters(None) == {}
        for bad in ("workload", "=tpcc", "figure=6a"):
            with pytest.raises(ValueError):
                parse_filters([bad])
        assert set(parse_filters([f"{k}=x" for k in FILTER_KEYS])) \
            == set(FILTER_KEYS)


# ---------------------------------------------------------------------------
# Opt-out: no ledger is None — library default, environment, flag
# ---------------------------------------------------------------------------


class TestOptOut:
    def test_null_ledger_is_inert(self, capsys):
        from repro.cli import _ledger_note
        from repro.experiments.runner import record_run

        assert record_run(None, _small_result(), "run") is None
        _ledger_note(None)
        assert capsys.readouterr().out == ""

    def test_env_toggle_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "0")
        assert default_ledger() is None
        for off in ("false", "no", "OFF"):
            monkeypatch.setenv("REPRO_LEDGER", off)
            assert default_ledger() is None

    def test_flag_beats_enabled_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "led"))
        assert default_ledger(no_ledger=True) is None
        store = default_ledger()
        assert isinstance(store, LedgerWriter)
        assert store.root == str(tmp_path / "led")

    def test_library_default_records_nothing(self, monkeypatch, tmp_path):
        from repro.experiments.runner import run_benchmark
        from repro.experiments.systems import make_system
        from repro.workloads import SysBenchWorkload

        monkeypatch.chdir(tmp_path)  # where a default store would land
        workload = SysBenchWorkload(scale=0.05, n_requests=300)
        result = run_benchmark(workload,
                               make_system("icash", workload),
                               ledger=None)
        assert result.n_requests == 300
        assert not (tmp_path / ".repro-ledger").exists()


# ---------------------------------------------------------------------------
# Every entry point records
# ---------------------------------------------------------------------------


class TestEntryPoints:
    def test_run_benchmark_hook(self, tmp_path):
        from repro.experiments.runner import run_benchmark
        from repro.experiments.systems import make_system
        from repro.workloads import SysBenchWorkload

        store = _writer(tmp_path)
        workload = SysBenchWorkload(scale=0.05, n_requests=300)
        run_benchmark(workload, make_system("icash", workload),
                      ledger=store)
        (row,) = store.rows()
        assert row.command == "run_benchmark"
        assert row.spec["seed"] == workload.seed
        assert store.recorded == 1

    def test_bench_suite_embeds_run_ids(self, tmp_path):
        from repro.experiments import bench

        store = _writer(tmp_path)
        document = bench.run_suite(quick=True, ledger=store)
        rows = store.rows()
        assert len(rows) == len(document["cases"]) == 2
        for case, row in zip(document["cases"], rows):
            assert case["ledger_run_id"] == row.run_id
            assert row.command == "bench"
            assert row.extra["case"] == case["case"]
            assert row.extra["suite"] == "quick"
        # No dangling links: every embedded id resolves in the store.
        for case in document["cases"]:
            assert store.get(case["ledger_run_id"]).command == "bench"

    def test_bench_suite_without_ledger_links_null(self):
        from repro.experiments import bench

        document = bench.run_suite(quick=True)
        assert all(case["ledger_run_id"] is None
                   for case in document["cases"])

    def test_bench_seed_override_reaches_spec_and_ledger(self,
                                                         monkeypatch,
                                                         tmp_path):
        # Patch the fan-out so the seed plumbing is testable without
        # paying for two more full suite runs.
        from repro.experiments import bench, parallel

        captured = {}

        def fake_run_specs(specs, jobs=1, progress=None):
            captured["specs"] = specs
            return [parallel.SpecOutcome(result=_small_result(),
                                         host_wall_s=0.0)
                    for _ in specs]

        monkeypatch.setattr(bench, "run_specs", fake_run_specs)
        store = _writer(tmp_path)
        document = bench.run_suite(quick=True, ledger=store, seed=777)
        assert [spec.seed for spec in captured["specs"]] == [777, 777]
        assert [case["seed"] for case in document["cases"]] == [777, 777]
        assert all(row.spec["seed"] == 777 for row in store.rows())

    def test_sweep_records_each_point(self, tmp_path):
        from repro.experiments.sweeps import sweep_config

        store = _writer(tmp_path)
        sweep_config(_SMALL_SPEC, "scan_interval", [200, 800],
                     ledger=store)
        rows = store.rows()
        assert [row.extra["value"] for row in rows] == [200, 800]
        assert all(row.command == "sweep" for row in rows)
        assert rows[0].spec["config_overrides"] \
            == [["scan_interval", 200]]
        assert all(_recipe(row) == {"seed": 2011, "scale": 0.05,
                                    "n_vms": 0, "warmup_fraction": 0.25,
                                    "load": None} for row in rows)

    def test_loadtest_records_probe(self, tmp_path):
        from repro.experiments import loadtest

        store = _writer(tmp_path)
        loadtest.run_rate_point(_SMALL_SPEC, 500.0, seed=99,
                                ledger=store)
        (row,) = store.rows()
        assert row.command == "loadtest"
        assert row.extra == {"role": "probe", "offered_rps": 500.0}
        # The arrival seed lives in the load; ``seed`` is the workload's.
        assert _recipe(row) == {
            "seed": 2011, "scale": 0.05, "n_vms": 0,
            "warmup_fraction": 0.0,
            "load": ["open", 500.0, "poisson", 99]}

    def test_loadtest_calibration_and_probe_rows_agree_on_seed(
            self, tmp_path):
        from repro.experiments import loadtest

        store = _writer(tmp_path)
        capacity = loadtest.calibrate_capacity(_SMALL_SPEC, ledger=store)
        loadtest.sweep_rates(_SMALL_SPEC, [capacity / 2], seed=99,
                             ledger=store)
        calibrate, probe = store.rows()
        assert (calibrate.extra["role"], probe.extra["role"]) \
            == ("calibrate", "probe")
        assert calibrate.spec["load"][0] == "closed"
        assert calibrate.spec["seed"] == probe.spec["seed"] == 2011
        assert probe.spec["load"][3] == 99

    def test_chaos_records_verdict_context(self, tmp_path):
        from repro.experiments import chaos

        store = _writer(tmp_path)
        scenario = chaos.quick_scenarios()[0]
        verdict = chaos.run_scenario(scenario, n_requests=300,
                                     ledger=store)
        (row,) = store.rows()
        assert row.command == "chaos"
        assert row.extra["scenario"] == scenario.scenario_id
        assert row.extra["fault_kind"] == scenario.fault_kind
        assert row.extra["passed"] == verdict.passed
        assert row.metrics["faults"], "fault outcomes missing"
        # Fault and arrival seed (1234) ride in the load, not in ``seed``.
        assert row.spec["seed"] == 2011
        assert row.spec["load"][0] == "open"
        assert row.spec["load"][2:] == ["poisson", 1234]
        assert (row.spec["engine"], row.spec["n_requests"],
                row.spec["n_vms"], row.spec["warmup_fraction"]) \
            == ("event", 300, 0, 0.25)

    def test_record_figure_walks_every_system(self, tmp_path):
        from repro.experiments.figures import record_figure

        store = _writer(tmp_path)
        fake = SimpleNamespace(
            figure="figure6a", metric="tx/s",
            runs={"icash": _small_result(), "lru": _small_result(seed=7)},
            specs={"icash": _SMALL_SPEC,
                   "lru": replace(_SMALL_SPEC, system="lru", seed=7)})
        assert record_figure(store, fake) == 2
        rows = store.rows()
        assert [row.extra["system"] for row in rows] == ["icash", "lru"]
        assert all(row.command == "figure" and
                   row.extra["figure"] == "figure6a" for row in rows)
        assert [row.spec["seed"] for row in rows] == [2011, 7]
        assert all(row.spec["scale"] == 0.05 for row in rows)
        assert record_figure(None, fake) == 0


# ---------------------------------------------------------------------------
# Diff + provenance hints
# ---------------------------------------------------------------------------


class TestDiff:
    def test_seed_change_yields_deltas_and_seed_hint(self, tmp_path):
        store = _writer(tmp_path)
        store.record(_small_result(), command="bench",
                     spec={"seed": 2011})
        store.record(_small_result(seed=7), command="bench",
                     spec={"seed": 7})
        diff = diff_rows(store.get("1"), store.get("2"))
        assert diff.deltas, "different seeds must shift some metric"
        assert any("seed differs" in hint for hint in diff.hints)
        rendered = diff.render()
        assert "why might these differ?" in rendered
        # Sorted most-moved first.
        rels = [abs(d.rel) for d in diff.deltas if d.rel is not None]
        assert rels == sorted(rels, reverse=True)

    def test_identical_rows_fall_back_to_determinism_hint(self, tmp_path,
                                                          monkeypatch):
        # Pin provenance to a clean tree; otherwise the dirty-tree
        # hint (correctly) pre-empts the fallback while developing.
        monkeypatch.setattr(ledger_module, "_GIT_CACHE",
                            ("deadbeef", False))
        store = _writer(tmp_path)
        store.record(_small_result(), command="run", spec={"seed": 2011})
        store.record(_small_result(), command="run", spec={"seed": 2011})
        diff = diff_rows(store.get("1"), store.get("2"))
        assert diff.deltas == []
        assert diff.unchanged == len(flatten_metrics(
            store.get("1").metrics))
        assert any("same recipe" in hint for hint in diff.hints)

    def test_config_override_hint(self, tmp_path):
        store = _writer(tmp_path)
        store.record(_small_result(), command="sweep",
                     spec={"seed": 2011, "config_overrides": []})
        store.record(_small_result(delta_accept=64), command="sweep",
                     spec={"seed": 2011,
                           "config_overrides": [["delta_accept_bytes",
                                                 64]]})
        diff = diff_rows(store.get("1"), store.get("2"))
        assert any("config overrides differ" in hint
                   for hint in diff.hints)

    def test_engine_and_command_hints(self, tmp_path):
        store = _writer(tmp_path)
        store.record(_small_result(), command="run", spec={"seed": 2011})
        store.record(_small_result(engine="event"), command="bench",
                     spec={"seed": 2011})
        hints = diff_rows(store.get("1"), store.get("2")).hints
        assert any("engine differs" in hint for hint in hints)
        assert any("different commands" in hint for hint in hints)


# ---------------------------------------------------------------------------
# Anomaly detection + trend
# ---------------------------------------------------------------------------


class TestAnomalyDetector:
    def test_short_history_never_flags(self):
        assert detect_anomalies([100.0] * MIN_HISTORY + [999.0]) != []
        assert detect_anomalies([100.0, 999.0, 100.0]) == []

    def test_zero_spread_history_flags_any_shift(self):
        values = [100.0] * 6 + [120.0]
        (anomaly,) = detect_anomalies(values)
        assert anomaly.index == 6
        assert anomaly.value == 120.0
        assert anomaly.median == 100.0
        assert anomaly.score == float("inf")
        assert anomaly.floor == pytest.approx(5.0)  # 5% of median

    def test_below_floor_shift_is_noise(self):
        values = [100.0] * 6 + [104.0]  # inside the 5% floor
        assert detect_anomalies(values) == []

    def test_noisy_history_absorbs_proportional_shift(self):
        base = [90.0, 110.0, 95.0, 105.0, 100.0, 98.0, 102.0]
        assert detect_anomalies(base + [112.0]) == []
        assert detect_anomalies(base + [220.0]) != []

    def test_sems_raise_the_floor(self):
        values = [100.0] * 6 + [120.0]
        quiet = detect_anomalies(values, sems=[0.1] * 7)
        assert len(quiet) == 1
        # NOISE_Z (3) x sem median 10 = floor 30 > the 20 deviation.
        noisy = detect_anomalies(values, sems=[10.0] * 7)
        assert noisy == []

    def test_metric_policy_tolerance_is_used(self):
        from repro.experiments.bench import METRIC_POLICY

        metric, (_, rel_tol, _) = next(iter(METRIC_POLICY.items()))
        values = [100.0] * 6 + [100.0 * (1 + rel_tol) - 0.01]
        assert detect_anomalies(values, metric=metric) == []

    def test_window_bounds(self):
        with pytest.raises(ValueError, match="window"):
            detect_anomalies([1.0] * 10, window=MIN_HISTORY - 1)
        # A spike 9 points back falls out of an 8-wide window.
        values = [500.0] + [100.0] * DEFAULT_WINDOW + [100.0]
        assert detect_anomalies(values, window=DEFAULT_WINDOW) == []

    def test_flagged_point_does_not_poison_zero_spread_history(self):
        # One bad deploy among identical-seed reruns: later good runs
        # sit at the historical median again and must not flag.
        values = [100.0] * 5 + [150.0] + [100.0] * 3
        flagged = detect_anomalies(values)
        assert [a.index for a in flagged] == [5]

    def test_constants_are_the_documented_ones(self):
        assert ANOMALY_Z == 3.5
        assert DEFAULT_WINDOW == 8
        assert MIN_HISTORY == 3
        assert ledger_module.MAD_SCALE == 1.4826
        from repro.experiments.bench import DEFAULT_REL_TOL
        assert DEFAULT_REL_TOL == 0.05


class TestTrend:
    def test_injected_change_flags_only_the_changed_run(self, tmp_path):
        """The acceptance scenario: K identical-seed runs plus one run
        with a deliberately different configuration — the detector
        flags exactly the changed run."""
        store = _writer(tmp_path)
        for _ in range(5):
            store.record(_small_result(), command="sweep",
                         spec={"seed": 2011})
        store.record(_small_result(delta_accept=64), command="sweep",
                     spec={"seed": 2011,
                           "config_overrides": [["delta_accept_bytes",
                                                 64]]})
        metric = "counters.delta_reconstructions"
        values = [ledger_module.metric_value(row, metric)
                  for row in store.rows()]
        assert len(set(values[:5])) == 1, "identical reruns drifted"
        assert values[5] != values[0], "config change had no effect"
        report = store.trend(metric)
        assert [a.index for a in report.anomalies] == [5]
        assert report.anomalies[0].score == float("inf")
        assert "1 anomalie(s)" in report.render()

    def test_trend_filters_and_missing_metric(self, tmp_path):
        store = _writer(tmp_path)
        for seed in (2011, 2011, 2011, 7):
            store.record(_small_result(seed=seed), command="run",
                         spec={"seed": seed})
        scoped = store.trend("transactions_per_s",
                             filters={"seed": 2011})
        assert len(scoped.values) == 3
        assert "seed=2011" in scoped.render()
        empty = store.trend("no_such_metric")
        assert empty.values == []
        assert "no matching runs" in empty.render()

    def test_sparkline(self):
        assert sparkline([]) == ""
        flat = sparkline([5.0, 5.0, 5.0])
        assert len(flat) == 3 and len(set(flat)) == 1
        ramp = sparkline(list(range(8)))
        assert ramp[0] == "▁" and ramp[-1] == "█"
        assert len(sparkline(list(range(100)), width=60)) == 60


# ---------------------------------------------------------------------------
# Determinism across job counts; cross-process append safety
# ---------------------------------------------------------------------------


def _record_worker(args):
    """Top-level so ProcessPoolExecutor can pickle it by reference."""
    root, seed, n_rows = args
    store = LedgerWriter(root=root)
    for _ in range(n_rows):
        store.record(_small_result(seed=seed), command="run",
                     spec={"seed": seed})
    return store.recorded


def _record_numbered(args):
    """Record ``n_rows`` distinct rows; returns their run ids."""
    root, n_rows = args
    store = LedgerWriter(root=root)
    return [store.record(_small_result(), command="run",
                         spec={"seed": 2011}, extra={"i": i})
            for i in range(n_rows)]


def _drive_sweep(jobs, store):
    from repro.experiments.sweeps import sweep_config

    sweep_config(_SMALL_SPEC, "scan_interval", [200, 800], jobs=jobs,
                 ledger=store)


def _drive_loadtest(jobs, store):
    from repro.experiments import loadtest

    capacity = loadtest.calibrate_capacity(_SMALL_SPEC, ledger=store)
    loadtest.sweep_rates(_SMALL_SPEC,
                         loadtest.auto_rates(capacity, 2), jobs=jobs,
                         ledger=store)


def _drive_compare(jobs, store):
    from repro.experiments import loadtest

    loadtest.compare_at_knee(_SMALL_SPEC, ("fusion-io", "icash"),
                             jobs=jobs, ledger=store)


class TestDeterminism:
    @staticmethod
    def _canonical_exports(tmp_path, drive):
        """Canonical export bytes after ``drive(jobs, store)`` at one
        and at two jobs."""
        exports = {}
        for jobs in (1, 2):
            store = _writer(tmp_path, f"jobs{jobs}",
                            clock=lambda: 1.5)
            drive(jobs, store)
            path = tmp_path / f"canon{jobs}.jsonl"
            store.export(str(path), canonical=True)
            exports[jobs] = path.read_bytes()
        return exports

    def test_canonical_export_byte_identical_across_jobs(self, tmp_path):
        from repro.experiments import bench

        exports = self._canonical_exports(
            tmp_path, lambda jobs, store: bench.run_suite(
                quick=True, jobs=jobs, ledger=store))
        assert exports[1] == exports[2]
        assert exports[1], "canonical export came out empty"
        for line in exports[1].decode().splitlines():
            assert "volatile" not in json.loads(line)

    @pytest.mark.parametrize("drive, n_rows", [
        (_drive_sweep, 2), (_drive_loadtest, 3), (_drive_compare, 6)],
        ids=["sweep", "loadtest", "compare"])
    def test_every_driver_records_the_same_rows_at_any_jobs(
            self, tmp_path, drive, n_rows):
        exports = self._canonical_exports(tmp_path, drive)
        assert len(exports[1].splitlines()) == n_rows
        assert exports[1] == exports[2]

    def test_concurrent_recorders_cannot_corrupt(self, tmp_path):
        root = str(tmp_path / "shared")
        LedgerWriter(root=root)  # create the store up front
        jobs = [(root, seed, 3) for seed in (2011, 7)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            recorded = list(pool.map(_record_worker, jobs))
        assert recorded == [3, 3]
        store = LedgerWriter(root=root)
        assert store.count() == 6
        assert [row.seq for row in store.rows()] == list(range(1, 7))
        assert store.verify() == []


# ---------------------------------------------------------------------------
# Maintenance: verify, export repair, prune, schema guard
# ---------------------------------------------------------------------------


class TestMaintenance:
    def _seeded(self, tmp_path, n=3):
        store = _writer(tmp_path)
        for seed in range(n):
            store.record(_small_result(seed=seed or 2011),
                         command="run", spec={"seed": seed or 2011})
        return store

    @staticmethod
    def _lines(store):
        with open(store.path, encoding="utf-8") as handle:
            return handle.readlines()

    @staticmethod
    def _write(store, lines):
        with open(store.path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

    def test_verify_clean_store(self, tmp_path):
        assert self._seeded(tmp_path).verify() == []

    def test_fresh_store_holds_the_store_and_its_lock(self, tmp_path):
        store = self._seeded(tmp_path, n=1)
        assert sorted(os.listdir(store.root)) \
            == sorted([ledger_module.EXPORT_NAME, ledger_module.LOCK_NAME])
        # A database an older layout left behind is ignored, never
        # deleted.
        old = tmp_path / "old"
        old.mkdir()
        (old / "ledger.db").write_bytes(b"old database")
        store = LedgerWriter(root=str(old))
        store.record(_small_result(), command="run", spec={"seed": 2011})
        store.prune(keep=1)
        assert (old / "ledger.db").read_bytes() == b"old database"
        assert store.count() == 1

    def test_torn_tail_is_skipped_reported_and_truncated(self, tmp_path):
        store = self._seeded(tmp_path)
        last = self._lines(store)[-1]
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(last[:len(last) // 2])  # an append cut short
        (issue,) = store.verify()
        assert f"{store.path}:4: torn final line" in issue
        assert [row.seq for row in store.rows()] == [1, 2, 3]
        assert store.count() == 3
        store.record(_small_result(), command="run", spec={"seed": 2011})
        assert store.verify() == []
        assert [row.seq for row in store.rows()] == [1, 2, 3, 4]

    def test_verify_catches_mangled_export_line(self, tmp_path):
        store = self._seeded(tmp_path)
        lines = self._lines(store)
        self._write(store, lines[:2] + ["not json\n"])
        with pytest.raises(ValueError, match=re.escape(
                f"{store.path}:3: not a ledger row")):
            store.record(_small_result(), command="run",
                         spec={"seed": 2011})
        lines[1] = "not json\n"
        self._write(store, lines)
        where = re.escape(f"{store.path}:2: not a ledger row")
        for read in (store.verify, store.rows, lambda: store.get("3"),
                     lambda: store.prune(keep=1)):
            with pytest.raises(ValueError, match=where):
                read()
        # The tail is intact, so appending still works.
        store.record(_small_result(), command="run", spec={"seed": 2011})
        assert len(self._lines(store)) == 4

    def test_list_last_and_record_read_only_the_tail(self, tmp_path):
        store = self._seeded(tmp_path)
        lines = self._lines(store)
        lines[0] = "not json\n"
        self._write(store, lines)
        assert [row.seq for row in store.rows(last=2)] == [2, 3]
        store.record(_small_result(), command="run", spec={"seed": 2011})
        assert [row.seq for row in store.rows(last=2)] == [3, 4]
        with pytest.raises(ValueError, match=r":1: not a ledger row"):
            store.rows()

    def test_verify_catches_edited_row(self, tmp_path):
        store = self._seeded(tmp_path)
        lines = self._lines(store)
        doc = json.loads(lines[1])
        doc["metrics"]["scalars"]["transactions_per_s"] += 1.0
        lines[1] = json.dumps(doc, sort_keys=True) + "\n"
        self._write(store, lines)
        issues = store.verify()
        assert any("does not match content" in issue
                   for issue in issues)

    def test_prune_keeps_newest_and_rewrites_export(self, tmp_path):
        store = self._seeded(tmp_path, n=4)
        before = self._lines(store)
        assert store.prune(keep=2) == 2
        assert [row.seq for row in store.rows()] == [3, 4]
        assert self._lines(store) == before[2:]  # kept byte for byte
        assert not os.path.exists(store.path + ".tmp")
        assert store.verify() == []
        store.record(_small_result(), command="run", spec={"seed": 2011})
        assert [row.seq for row in store.rows()] == [3, 4, 5]
        with pytest.raises(ValueError):
            store.prune(keep=-1)

    def test_prune_racing_a_recorder_loses_no_written_row(self, tmp_path):
        store = self._seeded(tmp_path)
        n_rows = 12
        deadline = time.monotonic() + 300.0
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            future = pool.submit(_record_numbered, (store.root, n_rows))
            prunes = 0
            while not future.done() or prunes == 0:
                assert time.monotonic() < deadline, "recorder hung"
                store.prune(keep=n_rows)
                prunes += 1
            written = future.result(timeout=60.0)
        assert len(set(written)) == n_rows
        assert set(written) <= {row.run_id for row in store.rows()}
        assert store.verify() == []

    def test_schema_version_guard(self, tmp_path):
        store = self._seeded(tmp_path)
        lines = self._lines(store)
        doc = json.loads(lines[-1])
        doc["schema_version"] = 99
        lines[-1] = json.dumps(doc, sort_keys=True) + "\n"
        self._write(store, lines)
        assert any("row schema 99" in issue for issue in store.verify())
        with pytest.raises(ValueError, match="schema 99 unsupported"):
            store.record(_small_result(), command="run",
                         spec={"seed": 2011})
        assert store.count() == 3


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------


class TestCLI:
    @pytest.fixture
    def recording_env(self, monkeypatch, tmp_path):
        root = tmp_path / "led"
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(root))
        return root

    def _run(self, capsys, argv, expect=0):
        from repro.cli import main

        assert main(argv) == expect
        return capsys.readouterr().out

    def test_cli_records_inspects_and_maintains(self, capsys, tmp_path,
                                                recording_env):
        root = str(recording_env)
        out = self._run(capsys, ["run", "sysbench", "--requests", "200"])
        assert "ledger: recorded 1 run" in out
        self._run(capsys, ["run", "sysbench", "--requests", "200"])

        out = self._run(capsys, ["ledger", "list", "--dir", root])
        assert len([line for line in out.splitlines()
                    if line.startswith("#")]) == 2

        out = self._run(capsys, ["ledger", "show", "1", "--dir", root])
        assert json.loads(out)["command"] == "run"

        out = self._run(capsys,
                        ["ledger", "diff", "1", "2", "--dir", root])
        assert "no metric differences" in out
        assert "why might these differ?" in out

        out = self._run(capsys, ["ledger", "trend",
                                 "transactions_per_s", "--dir", root])
        assert "2 run(s)" in out

        out = self._run(capsys, ["ledger", "verify", "--dir", root])
        assert out.startswith("ok:")

        export_path = tmp_path / "out.jsonl"
        out = self._run(capsys, ["ledger", "export", "--dir", root,
                                 "--canonical", "--out",
                                 str(export_path)])
        assert "2 row(s)" in out
        assert len(export_path.read_text().splitlines()) == 2

        out = self._run(capsys, ["ledger", "prune", "--keep", "1",
                                 "--dir", root])
        assert "pruned 1 row(s)" in out

    def test_no_ledger_flag_skips_recording(self, capsys, tmp_path,
                                            recording_env):
        out = self._run(capsys, ["run", "sysbench", "--requests", "200",
                                 "--no-ledger"])
        assert "ledger:" not in out
        assert not recording_env.exists()

    def test_missing_store_is_a_clear_error(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["ledger", "list", "--dir",
                     str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert "no ledger at" in err

    def test_bad_filter_is_a_clear_error(self, capsys, tmp_path,
                                         recording_env):
        self._run(capsys, ["run", "sysbench", "--requests", "200"])
        from repro.cli import main

        assert main(["ledger", "list", "--dir", str(recording_env),
                     "--filter", "figure=6a"]) == 2
        assert "unknown filter" in capsys.readouterr().err

    def test_garbage_line_is_a_clear_error(self, capsys, recording_env):
        from repro.cli import main

        self._run(capsys, ["run", "sysbench", "--requests", "200"])
        self._run(capsys, ["run", "sysbench", "--requests", "200"])
        path = recording_env / "export.jsonl"
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text(first + "not a row\n" + second)
        assert main(["ledger", "list", "--dir", str(recording_env)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:2: not a ledger row\n"
