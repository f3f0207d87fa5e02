"""Every `repro` subcommand's help text must name the doc section
that specifies it (the COMMAND_DOCS mapping), so `--help` never
drifts from the documentation tree again."""

import argparse
from pathlib import Path

import pytest

from repro.cli import COMMAND_DOCS, _build_parser

ROOT = Path(__file__).resolve().parents[1]


def subcommand_actions():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub


class TestCommandDocs:
    def test_mapping_covers_exactly_the_registered_commands(self):
        sub = subcommand_actions()
        registered = {ca.dest for ca in sub._choices_actions}
        assert registered == set(COMMAND_DOCS)

    def test_every_help_names_its_doc(self):
        sub = subcommand_actions()
        helps = {ca.dest: ca.help for ca in sub._choices_actions}
        for command, doc in COMMAND_DOCS.items():
            assert doc in helps[command], (
                f"`repro {command}` help must cite {doc}; "
                f"got: {helps[command]!r}")

    @pytest.mark.parametrize("doc", sorted(set(COMMAND_DOCS.values())))
    def test_cited_docs_exist(self, doc):
        assert (ROOT / doc).is_file(), f"{doc} cited but missing"

    def test_chaos_is_registered_with_expected_flags(self):
        sub = subcommand_actions()
        chaos_parser = sub.choices["chaos"]
        flags = {opt for action in chaos_parser._actions
                 for opt in action.option_strings}
        assert {"--quick", "--requests", "--seed", "--scenario",
                "--out"} <= flags


class TestSevenVerbs:
    """One verb per question: ``run`` attaches the observers, ``sweep``
    sweeps arrival rates and ``validate`` prints single series."""

    def test_help_lists_exactly_the_seven(self):
        sub = subcommand_actions()
        assert list(sub.choices) == ["run", "sweep", "validate", "analyze",
                                     "chaos", "ledger", "explain"]

    @pytest.mark.parametrize("verb", ["figure", "trace", "monitor",
                                      "critpath", "loadtest"])
    def test_folded_verb_is_an_invalid_choice(self, verb, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err


def _exit_code(argv):
    from repro.cli import main

    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


class TestHostileNumbers:
    """A numeric option the run cannot take exits 2 before anything
    runs — the code of an argparse error, never 1, which a failed
    verdict or consistency check uses — and names what it rejected."""

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "scan_interval", "0"], "scan_interval"),
        (["sweep", "flush_interval", "abc"], "flush_interval"),
        (["sweep", "flush_interval", "0"], "flush_interval"),
        (["sweep", "flush_interval", "2.5"], "flush_interval"),
        (["sweep", "flush_dirty_count", "-1"], "flush_dirty_count"),
        (["sweep", "compress_s", "nan"], "compress_s"),
        (["sweep", "signature_scheme", "sampled"], "signature_scheme"),
        (["sweep", "load.rate", "--points", "0"], "argument --points"),
        (["sweep", "load.rate", "--span", "2", "1"], "argument --span"),
        (["sweep", "load.rate", "-5"], "argument values"),
        (["run", "sysbench", "--critpath", "--rate", "-5"],
         "argument --rate"),
        (["run", "sysbench", "--trace", "t.json", "--buffer", "0"],
         "argument --buffer"),
        (["validate", "figure6a", "--requests", "0"], "argument --requests"),
        (["run", "sysbench", "--requests", "0"], "argument --requests"),
        (["analyze", "sysbench", "--requests", "0"], "argument --requests"),
        (["chaos", "--quick", "--requests", "0"], "argument --requests"),
        (["sweep", "scan_interval", "500", "--requests", "50", "--jobs",
          "0"], "argument --jobs"),
        (["validate", "figure6a", "--requests", "50", "--jobs", "0"],
         "argument --jobs"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list)
        else None)
    def test_rejected_before_any_run(self, argv, named, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _exit_code(argv) == 2
        out, err = capsys.readouterr()
        assert named in err and "Traceback" not in err
        assert out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (["ledger", "list", "--last", "-1"], "argument --last"),
        (["ledger", "trend", "transactions_per_s", "--last", "0"],
         "argument --last"),
        (["ledger", "trend", "transactions_per_s", "--window", "2"],
         "argument --window"),
        (["ledger", "prune", "--keep", "-1"], "argument --keep"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list)
        else None)
    def test_rejected_before_the_store_opens(self, argv, named, tmp_path,
                                             monkeypatch, capsys):
        """On a store with rows, so that an empty listing cannot pass
        for a rejection."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_DIR", "led")
        assert _exit_code(["run", "sysbench", "--requests", "300"]) == 0
        store = (tmp_path / "led" / "export.jsonl").read_bytes()
        capsys.readouterr()
        assert _exit_code(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("usage:") and named in err
        assert out == ""
        assert (tmp_path / "led" / "export.jsonl").read_bytes() == store
        assert [path.name for path in tmp_path.iterdir()] == ["led"]
