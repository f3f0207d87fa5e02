"""The explain engine's acceptance contract (ISSUE 9).

Covers the four criteria the PR promises:

* between two ledger runs differing only by an injected config
  override, `repro explain` ranks that knob as the #1 suspect and the
  evidence includes attribution rows that moved;
* between two identical-seed runs it reports "no significant deltas";
* the rendered report and its JSON form are byte-deterministic for
  fixed inputs;
* the flame-diff export round-trips through the folded-stack parser.

Plus unit coverage of the building blocks: phase segmentation and
alignment, queueing diffs, scalar significance, and the CLI surface
(`repro explain` on ledger refs and BENCH files, bench EXPLAIN emission).
"""

import json
import os
from dataclasses import replace

import pytest

from repro.analysis.explain import (align_phases, diff_queueing,
                                    explain_bench_cases,
                                    explain_ledger_rows,
                                    explain_results, export_flame_diff,
                                    fingerprint_distance,
                                    flame_diff_stacks, parse_flame_diff,
                                    segment_phases,
                                    significant_scalars)
from repro.core import ICASHController
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_icash_config
from repro.ledger import LedgerWriter
from repro.sim.metrics import Monitor
from repro.sim.profile import Profiler
from repro.workloads import SysBenchWorkload

N_REQUESTS = 500
SEED = 2011
#: The injected knob: accept almost no delta as compressible, which
#: guts the paper's core mechanism and moves every headline metric.
OVERRIDE = ("delta_accept_bytes", 1)


def _run(seed=SEED, overrides=()):
    workload = SysBenchWorkload(n_requests=N_REQUESTS, seed=seed)
    config = make_icash_config(workload)
    if overrides:
        config = replace(config, **dict(overrides))
    system = ICASHController(workload.build_dataset(), config)
    return run_benchmark(workload, system, engine="event",
                         profiler=Profiler(),
                         monitor=Monitor(interval_s=0.01))


@pytest.fixture(scope="module")
def base_result():
    return _run()


@pytest.fixture(scope="module")
def twin_result():
    return _run()


@pytest.fixture(scope="module")
def override_result():
    return _run(overrides=(OVERRIDE,))


def _spec(seed=SEED, overrides=()):
    return {"workload": "sysbench", "system": "icash",
            "engine": "event", "seed": seed,
            "config_overrides": [list(pair) for pair in overrides]}


@pytest.fixture(scope="module")
def store(tmp_path_factory, base_result, twin_result, override_result):
    """A ledger holding seq 1 = base, 2 = identical twin, 3 = override."""
    root = str(tmp_path_factory.mktemp("explain-ledger"))
    writer = LedgerWriter(root)
    writer.record(base_result, command="test", spec=_spec())
    writer.record(twin_result, command="test", spec=_spec())
    writer.record(override_result, command="test",
                  spec=_spec(overrides=(OVERRIDE,)))
    return writer


def _explain(store, ref_a, ref_b):
    return explain_ledger_rows(store.get(ref_a), store.get(ref_b))


class TestLedgerExplain:
    def test_config_override_is_top_suspect(self, store):
        report = _explain(store, "1", "3")
        assert report.significant
        assert report.suspects, "a real regression must produce suspects"
        top = report.suspects[0]
        assert top.cause == "config_override"
        assert "delta_accept_bytes" in top.summary
        assert top.evidence, "the top suspect must carry evidence"

    def test_attribution_rows_appear_as_evidence(self, store):
        report = _explain(store, "1", "3")
        top = report.suspects[0]
        moved = {f"{d.op}" for d in report.attribution_deltas
                 if d.significant}
        assert moved, "the override must move attribution rows"
        assert any(op in line for line in top.evidence for op in moved)

    def test_identical_runs_report_no_significant_deltas(self, store):
        report = _explain(store, "1", "2")
        assert not report.significant
        assert not report.suspects
        assert "no significant deltas" in report.render()

    def test_render_is_byte_deterministic(self, store):
        first = _explain(store, "1", "3")
        second = _explain(store, "1", "3")
        assert first.render() == second.render()
        assert first.render_json() == second.render_json()
        json.loads(first.render_json())  # and it is valid JSON


class TestLiveResultExplain:
    def test_full_report_carries_all_four_sections(
            self, base_result, override_result):
        report = explain_results(base_result, override_result,
                                 spec_a=_spec(),
                                 spec_b=_spec(overrides=(OVERRIDE,)))
        assert report.significant
        assert report.scalar_deltas
        assert report.attribution_deltas
        assert report.queueing_diff is not None
        assert report.phase_report is not None
        doc = report.to_json()
        assert doc["queueing"] is not None
        assert doc["phases"] is not None
        assert doc["suspects"][0]["cause"] == "config_override"

    def test_self_diff_is_quiet(self, base_result):
        report = explain_results(base_result, base_result)
        assert not report.significant
        assert "no significant deltas" in report.render()


class TestFlameDiff:
    def test_round_trips_through_parser(self, base_result,
                                        override_result, tmp_path):
        report = explain_results(base_result, override_result)
        path = str(tmp_path / "flame.diff")
        lines = export_flame_diff(report.view_a, report.view_b, path)
        assert lines > 0
        parsed = parse_flame_diff(path)
        stacks = flame_diff_stacks(report.view_a, report.view_b)
        assert parsed == stacks

    def test_stack_shape_is_op_device_phase(self, base_result):
        from repro.analysis.explain import view_from_result

        view = view_from_result(base_result, "a")
        stacks = flame_diff_stacks(view, view)
        assert stacks
        for stack, (a_us, b_us) in stacks.items():
            assert len(stack.split(";")) == 3
            assert a_us == b_us  # self-diff

    def test_export_matches_folded_stack_grammar(self, base_result,
                                                 tmp_path):
        """Each line is `frames SPACE int SPACE int` — what
        flamegraph.pl --negate and speedscope's importer expect."""
        from repro.analysis.explain import view_from_result

        view = view_from_result(base_result, "a")
        path = str(tmp_path / "flame.diff")
        export_flame_diff(view, view, path)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                stack, count_a, count_b = line.rsplit(" ", 2)
                assert stack
                int(count_a)
                int(count_b)


class TestPhases:
    def test_fingerprint_distance_sentinels(self):
        assert fingerprint_distance((-1.0, 0.5), (-1.0, 0.5)) == 0.0
        assert fingerprint_distance((-1.0, 0.5), (0.3, 0.5)) == 0.5
        assert fingerprint_distance((0.2,), (0.6,)) == pytest.approx(0.4)

    def test_alignment_identity(self):
        class FakePhase:
            def __init__(self, index, fingerprint):
                self.index = index
                self.fingerprint = fingerprint

        a = [FakePhase(0, (0.1, 0.2)), FakePhase(1, (0.8, 0.9))]
        assert align_phases(a, a) == [(0, 0), (1, 1)]

    def test_alignment_with_gap(self):
        class FakePhase:
            def __init__(self, index, fingerprint):
                self.index = index
                self.fingerprint = fingerprint

        a = [FakePhase(0, (0.1,)), FakePhase(1, (0.9,))]
        b = [FakePhase(0, (0.1,))]
        pairs = align_phases(a, b)
        assert (0, 0) in pairs
        assert (1, None) in pairs

    def test_segmentation_on_live_series(self, base_result):
        phases = segment_phases(base_result.series)
        assert phases, "a run with windows must yield >= 1 phase"
        assert phases[0].start_window == 0
        assert phases[-1].end_window == len(base_result.series.windows)
        for earlier, later in zip(phases, phases[1:]):
            assert earlier.end_window == later.start_window


class TestQueueing:
    def test_self_diff_keeps_bottleneck(self, base_result):
        from repro.analysis.explain import view_from_result

        view = view_from_result(base_result, "a")
        diff = diff_queueing(view, view)
        assert diff is not None
        assert not diff.bottleneck_moved
        assert not diff.significant

    def test_missing_queueing_degrades_to_none(self, store):
        row = store.get("1")
        from repro.analysis.explain import view_from_ledger_row

        view = view_from_ledger_row(row)
        assert diff_queueing(view, view) is None


class TestScalars:
    def test_significance_respects_tolerance(self, store):
        report = _explain(store, "1", "2")
        assert significant_scalars(report.scalar_deltas) == []
        report = _explain(store, "1", "3")
        sig = significant_scalars(report.scalar_deltas)
        assert any(d.metric == "transactions_per_s" for d in sig)


class TestCLI:
    def test_explain_command_text_and_json(self, store, capsys):
        from repro.cli import main

        code = main(["explain", "1", "3", "--dir", store.root])
        out = capsys.readouterr().out
        assert code == 0
        assert "config overrides differ" in out

        code = main(["explain", "1", "3", "--dir", store.root,
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["suspects"][0]["cause"] == "config_override"

    def test_explain_flame_diff_flag(self, store, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "fd.txt")
        code = main(["explain", "1", "3", "--dir", store.root,
                     "--flame-diff", path])
        capsys.readouterr()
        assert code == 0
        assert parse_flame_diff(path) is not None

    def test_explain_rejects_mixed_inputs(self, store, tmp_path,
                                          capsys):
        from repro.cli import main

        bench = tmp_path / "BENCH_1.json"
        bench.write_text("{}")
        code = main(["explain", str(bench), "1", "--dir", store.root])
        capsys.readouterr()
        assert code == 2

    def test_explain_refs_print_the_ledger_diagnosis(self, store, capsys):
        from repro.cli import main

        code = main(["explain", "1", "3", "--dir", store.root])
        out = capsys.readouterr().out
        assert code == 0
        assert out == _explain(store, "1", "3").render() + "\n"
        assert out.startswith("explain:")
        assert "suspects" in out

    def test_missing_bench_file_is_a_clear_error(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "missing.json")
        present = tmp_path / "BENCH_1.json"
        present.write_text(json.dumps({"schema_version": 3, "cases": []}))
        assert main(["explain", str(present), missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"{missing}: ")


class TestBenchEmission:
    def test_regressed_case_emits_explain_report(self, tmp_path,
                                                 capsys):
        """A doctored baseline forces a regression; the compare path
        must write EXPLAIN_<case>.{txt,json} and print suspects."""
        from repro.cli import _emit_explain_reports
        from repro.experiments import bench

        case = {"case": "sysbench-icash-event", "workload": "sysbench",
                "system": "icash", "engine": "event", "seed": SEED,
                "n_requests": N_REQUESTS, "scale": None,
                "n_measured": 375,
                "metrics": {"transactions_per_s": 1000.0,
                            "read_mean_us": 30.0},
                "noise": {}, "attribution": []}
        slower = dict(case,
                      metrics={"transactions_per_s": 500.0,
                               "read_mean_us": 90.0})
        baseline = {"cases": [case]}
        current = {"cases": [slower]}
        deltas = bench.compare(baseline, current)
        regressed = bench.regressions(deltas)
        assert regressed
        out_dir = str(tmp_path / "bench-out")
        _emit_explain_reports(baseline, current, regressed, out_dir)
        printed = capsys.readouterr().out
        stem = os.path.join(out_dir, "EXPLAIN_sysbench-icash-event")
        assert os.path.exists(stem + ".txt")
        assert os.path.exists(stem + ".json")
        doc = json.loads(open(stem + ".json", encoding="utf-8").read())
        assert doc["significant"]
        assert "explain: sysbench-icash-event" in printed
        assert "1. [" in printed


class TestDocParity:
    """docs/OBSERVABILITY.md, README.md and docs/LEDGER.md must track
    the engine: the suspect-score table, the CLI surface and the
    debugging walkthrough are contracts, not prose."""

    @pytest.fixture(scope="class")
    def obs_doc(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        return (root / "docs" / "OBSERVABILITY.md").read_text()

    def test_suspect_score_table_matches_code(self, obs_doc):
        from repro.analysis.explain import SUSPECT_SCORES

        section = obs_doc.split("# Explaining a delta", 1)[1]
        for cause, score in SUSPECT_SCORES.items():
            row = f"| `{cause}` | {score:.2f} |"
            assert row in section, f"suspect {cause!r} undocumented"

    def test_walkthrough_chains_every_tool(self, obs_doc):
        section = obs_doc.split("# Debugging a regression", 1)[1]
        for command in ("repro bench --compare", "ledger diff",
                        "repro monitor --json", "repro critpath --json",
                        "repro trace", "explain"):
            assert command in section, f"{command!r} missing from the " \
                                       f"walkthrough"

    def test_flame_diff_grammar_documented(self, obs_doc):
        assert "op;device;phase a_us b_us" in obs_doc
        assert "--negate" in obs_doc

    def test_readme_cross_links(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        readme = " ".join((root / "README.md").read_text().split())
        assert "python -m repro explain" in readme
        assert "trace → monitor → critpath → ledger diff → explain" \
            in readme

    def test_ledger_doc_cross_links(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        ledger_doc = (root / "docs" / "LEDGER.md").read_text()
        assert "`repro explain`" in ledger_doc
        assert "OBSERVABILITY.md" in ledger_doc


class TestBenchFileInput:
    def test_two_bench_files_shared_case(self, tmp_path, capsys):
        from repro.cli import main

        case = {"case": "only", "workload": "sysbench",
                "system": "icash", "engine": "event", "seed": SEED,
                "n_requests": 100, "scale": None, "n_measured": 75,
                "metrics": {"transactions_per_s": 1000.0},
                "noise": {}, "attribution": []}
        doc = {"schema_version": 3, "cases": [case]}
        path_a = tmp_path / "BENCH_1.json"
        path_b = tmp_path / "BENCH_2.json"
        path_a.write_text(json.dumps(doc))
        path_b.write_text(json.dumps(
            {"schema_version": 3,
             "cases": [dict(case,
                            metrics={"transactions_per_s": 400.0})]}))
        code = main(["explain", str(path_a), str(path_b)])
        out = capsys.readouterr().out
        assert code == 0
        assert "transactions_per_s" in out
