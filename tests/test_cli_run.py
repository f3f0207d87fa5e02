"""Tests for the 'repro run' diagnosis command."""

from repro.cli import main as cli_main


class TestRunCommand:
    def test_icash_run_prints_diagnosis(self, capsys):
        code = cli_main(["run", "sysbench", "--requests", "800",
                         "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tx/s" in out
        assert "block population" in out
        assert "read path breakdown" in out
        assert "verified byte-exact" in out

    def test_baseline_run_skips_icash_internals(self, capsys):
        code = cli_main(["run", "sysbench", "--system", "fusion-io",
                         "--requests", "600"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tx/s" in out
        assert "block population" not in out


class TestVerifiedRuns:
    """The CLI's byte-exact read check end to end: every read compared
    with the workload's shadow on a write-heavy I-CASH run (which ends
    in the controller's ``check_invariants()``) and on dedup's copy-out
    path, both through the backing store's overlay; then the locality
    analysis, whose write replay keeps a shadow of its own over the
    frozen data set."""

    def test_write_heavy_icash_run(self, capsys):
        code = cli_main(["run", "specsfs", "--system", "icash",
                         "--requests", "1500", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reads verified byte-exact: 192" in out
        assert "dirty deltas        0" in out

    def test_dedup_copy_out_path(self, capsys):
        code = cli_main(["run", "tpcc", "--system", "dedup",
                         "--requests", "1500", "--verify"])
        assert code == 0
        assert "reads verified byte-exact: 3422" in capsys.readouterr().out

    def test_locality_analysis(self, capsys):
        code = cli_main(["analyze", "sysbench", "--requests", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reads=      289 writes=      111" in out
        assert "234 overwrites: mean change 6.3% of the block" in out


class TestChaosCommand:
    """``repro chaos --quick``: one fault per class injected into a live
    event-engine run, each judged against its SLO breach budget and
    recovery bound (docs/RELIABILITY.md); any FAIL verdict exits 1."""

    def test_quick_matrix_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_LEDGER")
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        out = tmp_path / "chaos.jsonl"
        code = cli_main(["chaos", "--quick", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0
        assert len(out.read_text().splitlines()) == 5
        assert printed.count(" PASS") == 4
        assert "4 scenario(s), 0 failed" in printed
        ledger = tmp_path / "ledger" / "export.jsonl"
        assert ledger.read_text().count('"command": "chaos"') == 4


class TestFigureCommand:
    def test_requests_reaches_two_digit_figures(self, capsys):
        """``--requests`` once skipped every figure10–16 (a prefix test
        on "figure1"); only the multi-VM pair sizes itself per VM."""
        from repro.experiments import figures

        figures.clear_cache()
        try:
            code = cli_main(["figure", "figure14", "--requests", "200"])
            sized = {key[:2] for key in figures._GRID_CACHE}
        finally:
            figures.clear_cache()
        assert code == 0
        assert "Figure 14" in capsys.readouterr().out
        assert sized == {("rubis", 200)}
