"""Tests for the extension subsystems: the sweep utility and the CLI."""

import pytest

from repro.cli import main as cli_main
from repro.experiments.parallel import RunSpec
from repro.experiments.sweeps import (SweepPoint, render_sweep,
                                      sweep_config)


def _sweep_spec(n_requests):
    return RunSpec(workload="sysbench", scale=0.05,
                   n_requests=n_requests, warmup_fraction=0.4)


class TestSweeps:
    def test_sweep_config_runs_each_value(self):
        points = sweep_config(_sweep_spec(400), "scan_interval",
                              [200, 400])
        assert [p.value for p in points] == [200, 400]
        assert all(isinstance(p, SweepPoint) for p in points)
        assert all(p.result.transactions_per_s > 0 for p in points)

    def test_render_sweep(self):
        points = sweep_config(_sweep_spec(300), "scan_interval", [250])
        text = render_sweep(points)
        assert "scan_interval" in text
        assert "250" in text

    def test_render_empty(self):
        assert "empty" in render_sweep([])

    def test_bad_parameter_raises(self):
        with pytest.raises(TypeError):
            sweep_config(_sweep_spec(300), "not_a_field", [1])


class TestCLI:
    def test_list(self, capsys):
        # Figure names are in `validate`'s help and its unknown-name
        # error; workload names are every verb's argparse choices.
        for argv in (["validate", "--help"], ["run", "--help"]):
            with pytest.raises(SystemExit):
                cli_main(argv)
        out = capsys.readouterr().out
        assert "figure6a" in out and "sysbench" in out
        assert cli_main(["validate", "figure99"]) == 2
        assert "figure6a" in capsys.readouterr().err

    def test_profile(self, capsys):
        assert cli_main(["analyze", "rubis", "--requests", "500"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("measured:")
        assert lines[1].startswith("paper:")
        assert lines[2] == "rubis initial data set:"

    def test_unknown_figure_fails_cleanly(self, capsys):
        assert cli_main(["validate", "figure99"]) == 2

    def test_sweep(self, capsys):
        assert cli_main(["sweep", "scan_interval", "300",
                         "--requests", "600"]) == 0
        out = capsys.readouterr().out
        assert "scan_interval" in out

    def test_sweep_bad_parameter(self, capsys):
        assert cli_main(["sweep", "bogus_field", "1",
                         "--requests", "300"]) == 2
