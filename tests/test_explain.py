"""The explain engine's acceptance contract.

Four criteria:

* between two ledger runs differing only by an injected config
  override, `repro explain` ranks that knob as the #1 suspect and the
  evidence includes attribution rows that moved;
* between two identical-seed runs it reports "no significant deltas";
* the rendered report and its JSON form are byte-deterministic for
  fixed inputs;
* the flame-diff export writes exactly the stacks it computes.

And two runs whose recipes differ in any spec field but the seed and
the config overrides are not comparable: the summary names the field.

Plus unit coverage of scalar significance and the CLI surface
(`repro explain` on ledger refs).
"""

import json
from dataclasses import replace
from unittest import mock

import pytest

from repro import ledger as ledger_module
from repro.analysis.explain import (explain_ledger_rows,
                                    export_flame_diff,
                                    flame_diff_stacks)
from repro.core import ICASHController
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_icash_config
from repro.ledger import SPEC_FIELDS, LedgerWriter
from repro.sim.profile import Profiler
from repro.workloads import SysBenchWorkload

N_REQUESTS = 500
SEED = 2011
#: The injected knob: accept almost no delta as compressible, which
#: guts the paper's core mechanism and moves every headline metric.
OVERRIDE = ("delta_accept_bytes", 1)


def _run(seed=SEED, overrides=(), n_requests=N_REQUESTS,
         warmup_fraction=0.25):
    workload = SysBenchWorkload(n_requests=n_requests, seed=seed)
    config = make_icash_config(workload)
    if overrides:
        config = replace(config, **dict(overrides))
    system = ICASHController(workload.build_dataset(), config)
    return run_benchmark(workload, system, engine="event",
                         warmup_fraction=warmup_fraction,
                         profiler=Profiler())


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


@pytest.fixture(scope="module")
def recipe_store(tmp_path_factory, base_result):
    """A ledger on a clean tree holding seq 1 = base, 2 = twice the
    requests, 3 = base recorded with its 0.25 warmup, 4 = a 0.4 warmup:
    two pairs whose recipes differ in one field each."""
    root = str(tmp_path_factory.mktemp("recipe-ledger"))
    writer = LedgerWriter(root)
    with mock.patch.object(ledger_module, "_GIT_CACHE",
                           ("deadbeef", False)):
        writer.record(base_result, command="test", spec=_spec())
        writer.record(_run(n_requests=2 * N_REQUESTS), command="test",
                      spec=_spec())
        for warmup in (0.25, 0.4):
            writer.record(_run(warmup_fraction=warmup), command="test",
                          spec={**_spec(), "warmup_fraction": warmup})
    return writer


def _explain(store, ref_a, ref_b):
    return explain_ledger_rows(store.get(ref_a), store.get(ref_b))


def _rows(result):
    """A run's full attribution table (a ledger row keeps only the
    heaviest rows)."""
    return result.attribution.to_rows()


def _read_flame_diff(path):
    """``{stack: (a_us, b_us)}`` from ``stack a_us b_us`` lines."""
    stacks = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stack, a_text, b_text = line.rsplit(" ", 2)
            stacks[stack] = (int(a_text), int(b_text))
    return stacks


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

    def test_json_carries_the_two_diffs_and_the_suspects(self, store):
        doc = _explain(store, "1", "3").to_json()
        assert set(doc) == {"a", "b", "significant", "suspects",
                            "scalars", "attribution"}
        assert doc["suspects"][0]["cause"] == "config_override"
        assert doc["scalars"] and doc["attribution"]


class TestFlameDiff:
    def test_round_trips_through_parser(self, base_result,
                                        override_result, tmp_path):
        rows_a, rows_b = _rows(base_result), _rows(override_result)
        path = str(tmp_path / "flame.diff")
        lines = export_flame_diff(rows_a, rows_b, path)
        assert lines > 0
        parsed = _read_flame_diff(path)
        assert parsed == flame_diff_stacks(rows_a, rows_b)
        assert len(parsed) == lines

    def test_stack_shape_is_op_device_phase(self, base_result):
        rows = _rows(base_result)
        stacks = flame_diff_stacks(rows, rows)
        assert stacks
        for stack, (a_us, b_us) in stacks.items():
            assert len(stack.split(";")) == 3
            assert a_us == b_us  # self-diff

    def test_export_matches_folded_stack_grammar(self, base_result,
                                                 tmp_path):
        """Each line is `frames SPACE int SPACE int` — what
        flamegraph.pl --negate and speedscope's importer expect."""
        rows = _rows(base_result)
        path = str(tmp_path / "flame.diff")
        export_flame_diff(rows, rows, path)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                stack, count_a, count_b = line.rsplit(" ", 2)
                assert stack
                int(count_a)
                int(count_b)


class TestRecipe:
    """Each paper claim compares runs of one recipe that differ in one
    thing; any other recipe difference makes the runs not comparable."""

    def test_recipe_is_every_spec_field_but_seed_and_overrides(self):
        from repro.analysis.explain import RECIPE_FIELDS

        assert RECIPE_FIELDS == (
            "workload", "system", "engine", "n_requests", "scale",
            "n_vms", "warmup_fraction", "load")
        assert set(RECIPE_FIELDS) == set(SPEC_FIELDS) - {
            "seed", "config_overrides"}

    @pytest.mark.parametrize("refs, field", [
        (("1", "2"), "n_requests"), (("3", "4"), "warmup_fraction")],
        ids=["n_requests", "warmup_fraction"])
    def test_one_recipe_difference_ranks_incomparable_first(
            self, recipe_store, refs, field):
        row_a, row_b = (recipe_store.get(ref) for ref in refs)
        assert [key for key in SPEC_FIELDS
                if row_a.spec[key] != row_b.spec[key]] == [field]
        top = explain_ledger_rows(row_a, row_b).suspects[0]
        assert top.cause == "incomparable"
        assert top.summary == (f"runs are not comparable: {field} "
                               f"{row_a.spec[field]!r} vs "
                               f"{row_b.spec[field]!r}")


    def test_recipe_difference_is_named_without_movement(
            self, tmp_path, base_result):
        writer = LedgerWriter(str(tmp_path))
        for scale in (None, 0.5):
            writer.record(base_result, command="test",
                          spec={**_spec(), "scale": scale})
        report = _explain(writer, "1", "2")
        assert not report.significant
        assert report.render().endswith(
            "\n  but runs are not comparable: scale None vs 0.5")


class TestScalars:
    def test_significance_respects_tolerance(self, store):
        report = _explain(store, "1", "2")
        assert not any(d.significant for d in report.scalar_deltas)
        report = _explain(store, "1", "3")
        sig = [d for d in report.scalar_deltas if d.significant]
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
        err = capsys.readouterr().err
        assert code == 0
        stacks = _read_flame_diff(path)
        assert f"wrote {len(stacks)} flame-diff line(s)" in err

    def test_recorded_critpath_runs_carry_attribution(
            self, tmp_path, monkeypatch, capsys):
        """docs/OBSERVABILITY.md's walkthrough from the command line:
        a profiled run's ledger row keeps its attribution table, so
        explain has rows to compare and a flame diff to write."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "walk"))
        for _ in range(2):
            assert main(["run", "sysbench", "--critpath",
                         "--requests", "300"]) == 0
        path = str(tmp_path / "fd.txt")
        capsys.readouterr()
        assert main(["explain", "1", "2", "--json",
                     "--flame-diff", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["attribution"]
        assert _read_flame_diff(path)

    def test_explain_rejects_mixed_inputs(self, store, tmp_path,
                                          capsys):
        from repro.cli import main

        path = tmp_path / "run.json"
        path.write_text("{}")
        code = main(["explain", str(path), "1", "--dir", store.root])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1

    def test_explain_refs_print_the_ledger_diagnosis(self, store, capsys):
        from repro.cli import main

        code = main(["explain", "1", "3", "--dir", store.root])
        out = capsys.readouterr().out
        assert code == 0
        assert out == _explain(store, "1", "3").render() + "\n"
        assert out.startswith("explain:")
        assert "suspects" in out


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
        for command in ("test_grid_digest.py", "repro explain A B",
                        "--json", "repro run W --monitor DIR --json",
                        "repro run W --critpath --json",
                        "repro run W --trace PATH"):
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
        assert "trace → monitor → critpath → ledger → explain" \
            in readme

    def test_ledger_doc_cross_links(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        ledger_doc = (root / "docs" / "LEDGER.md").read_text()
        assert "`repro explain`" in ledger_doc
        assert "OBSERVABILITY.md" in ledger_doc
