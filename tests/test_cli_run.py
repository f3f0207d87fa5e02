"""The CLI end to end: diagnosis runs, verified runs, chaos, single
series and the files each spelling writes."""

import pytest

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
            code = cli_main(["validate", "figure14", "--requests", "200"])
            sized = {key[:2] for key in figures._GRID_CACHE}
        finally:
            figures.clear_cache()
        assert code == 0
        assert "Figure 14" in capsys.readouterr().out
        assert sized == {("rubis", 200)}


class TestWrittenFiles:
    """Every file-writing spelling, run from an empty working directory
    with recording on into a ledger elsewhere, leaves exactly the files
    its command line names there: no stray export, default path or
    ledger beside them."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        """Two profiled rows to explain, outside the working directory."""
        from repro.experiments.parallel import RunSpec
        from repro.experiments.runner import run_benchmark
        from repro.ledger import LedgerWriter
        from repro.sim.profile import Profiler

        store = LedgerWriter(str(tmp_path_factory.mktemp("explained")))
        for seed in (2011, 7):
            spec = RunSpec(workload="sysbench", n_requests=300, seed=seed)
            workload = spec.build_workload()
            store.record(run_benchmark(workload, spec.build_system(workload),
                                       profiler=Profiler()),
                         command="run", spec=spec)
        return store.root

    @pytest.mark.parametrize("argv, named", [
        (["run", "sysbench", "--requests", "300", "--trace", "t.json"],
         {"t.json"}),
        (["run", "sysbench", "--requests", "300", "--monitor", "mon"],
         {"mon/series.csv", "mon/series.jsonl", "mon/metrics.prom"}),
        (["run", "sysbench", "--requests", "300", "--critpath",
          "--folded", "stacks.folded"], {"stacks.folded"}),
        (["sweep", "load.rate", "200000", "--requests", "200",
          "--csv", "curve.csv"], {"curve.csv"}),
        (["chaos", "--quick", "--requests", "400", "--out", "v.jsonl"],
         {"v.jsonl"}),
        (["explain", "1", "2", "--flame-diff", "diff.folded"],
         {"diff.folded"}),
    ], ids=["run --trace", "run --monitor", "run --critpath --folded",
            "sweep load.rate --csv", "chaos --out", "explain --flame-diff"])
    def test_only_the_named_files(self, argv, named, store, tmp_path,
                                  tmp_path_factory, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LEDGER", "1")
        monkeypatch.setenv("REPRO_LEDGER_DIR",
                           str(tmp_path_factory.mktemp("recorded")))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        if argv[0] == "explain":
            argv = argv + ["--dir", store]
        assert cli_main(argv) == 0
        capsys.readouterr()
        written = {path.relative_to(cwd).as_posix()
                   for path in cwd.rglob("*") if path.is_file()}
        assert written == named
        assert all((cwd / name).stat().st_size > 0 for name in named)
