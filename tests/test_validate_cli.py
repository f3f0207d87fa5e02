"""Tests for the validation harness and the new CLI commands.

The full ``validate()`` run is a benchmark-suite-sized job; these tests
exercise its aggregation logic against stubbed figures, and the CLI
paths against small real runs.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.experiments import figures
from repro.experiments import validate as validate_module
from repro.experiments.figures import ALL_FIGURES, SERIES, FigureResult
from repro.experiments.systems import SYSTEM_NAMES
from repro.experiments.validate import (Claim, ValidationSummary,
                                        _headline_claims)

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"

#: The least shape score each series must keep.
EXPECTED_FLOORS = {
    "figure6a": 0.9, "figure6b": 0.0, "figure7read": 0.6,
    "figure7write": 0.6, "figure8a": 0.6, "figure8b": 0.0,
    "figure9read": 0.5, "figure9write": 0.5, "figure10a": 0.9,
    "figure10b": 0.0, "figure11": 0.7, "figure12": 0.6, "figure13": 0.5,
    "figure14": 0.8, "figure15": 0.9, "figure16": 0.9,
    "table5hadoop": 0.5, "table5tpcc": 0.5, "table6sysbench": 1.0,
    "table6hadoop": 1.0, "table6tpcc": 1.0, "table6specsfs": 0.5,
}


def stub_figure(name: str, measured, paper, floor=0.0) -> FigureResult:
    return FigureResult(name, name, "x", "higher", measured, paper,
                        floor=floor)


def stub_results(icash_wins: bool = True):
    """Every series at the paper's own numbers, which hold every
    headline claim; a losing run puts I-CASH last everywhere."""
    results = {}
    for name, series in SERIES.items():
        measured = dict(series.paper)
        if not icash_wins:
            measured["icash"] = (0.5 * min(measured.values())
                                 if series.better == "higher"
                                 else 2 * max(measured.values()))
        results[name] = FigureResult(series.figure, series.title,
                                     series.metric, series.better,
                                     measured, series.paper)
    # The lifetime claim reads host page writes off the SysBench runs.
    results["table6sysbench"].runs = {
        "lru": SimpleNamespace(ssd_write_blocks=1000),
        "icash": SimpleNamespace(ssd_write_blocks=100 if icash_wins
                                 else 1000)}
    return results


class TestHeadlineClaims:
    def test_winning_run_holds_all_claims(self):
        claims = _headline_claims(stub_results(icash_wins=True))
        assert len(claims) == 28
        assert all(claim.holds for claim in claims)

    def test_losing_run_fails_claims(self):
        claims = _headline_claims(stub_results(icash_wins=False))
        assert not all(claim.holds for claim in claims)

    def test_missing_figure_marks_claim_failed(self):
        results = stub_results()
        results["figure15"] = stub_figure("figure15", {}, {})
        claims = _headline_claims(results)
        vm_claims = [c for c in claims if "(Fig 15)" in c.description]
        assert vm_claims and not any(c.holds for c in vm_claims)
        assert all(c.holds for c in claims if c not in vm_claims)


class TestValidationSummary:
    def test_render_and_scores(self):
        summary = ValidationSummary(
            shape_scores={"figure6a": 1.0, "figure12": 0.8},
            claims=[Claim("a", True), Claim("b", False)])
        assert summary.mean_shape_score == pytest.approx(0.9)
        assert summary.claims_held == 1
        text = summary.render()
        assert "figure6a" in text and "MISS b" in text

    def test_validate_uses_all_figures(self, monkeypatch):
        calls = []

        def fake_figure(name):
            def runner(**kwargs):
                calls.append(name)
                return stub_results()["figure6a"]
            return runner

        fake_registry = {name: fake_figure(name)
                         for name in ("figure6a", "figure10a", "figure11",
                                      "figure12", "figure14", "figure15",
                                      "figure16", "figure8a")}
        monkeypatch.setattr(validate_module.figures_module,
                            "ALL_FIGURES", fake_registry)
        summary = validate_module.validate()
        assert sorted(calls) == sorted(fake_registry)
        assert set(summary.shape_scores) == set(fake_registry)


class TestFloors:
    """A series below its floor fails the gate on its own."""

    def run(self, monkeypatch, floor):
        low = stub_figure("figure6a", {"fusion-io": 2.0, "icash": 1.0},
                          {"fusion-io": 1.0, "icash": 2.0}, floor=floor)
        monkeypatch.setattr(figures, "ALL_FIGURES",
                            {"figure6a": lambda **kwargs: low})
        monkeypatch.setattr(validate_module, "_headline_claims",
                            lambda results: [Claim("held", True)])
        return validate_module.validate()

    def test_series_below_its_floor_fails_validate(self, monkeypatch,
                                                   capsys):
        summary = self.run(monkeypatch, floor=0.9)
        assert summary.shape_scores == {"figure6a": 0.0}
        assert summary.below_floor == ["figure6a"]
        assert not summary.passed
        assert "LOW  figure6a" in summary.render()
        assert cli_main(["validate"]) == 1
        assert "at or above their floor: 0/1" in capsys.readouterr().out

    def test_series_at_its_floor_passes(self, monkeypatch):
        summary = self.run(monkeypatch, floor=0.0)
        assert summary.below_floor == [] and summary.passed
        assert cli_main(["validate"]) == 0


@pytest.fixture(scope="module")
def every_series():
    """Every registry entry, called through its factory on a stub grid
    (the runs themselves are tests/test_memos.py's)."""
    def stub_grid(family, n_requests, seed, n_vms=0):
        runs = {system: SimpleNamespace(
            transactions_per_s=rank, cpu_utilization=rank / 10,
            read_mean_us=rank, write_mean_us=rank, wall_time_s=rank,
            tx_response_ms=rank, loadsim_score=rank, io_response_ms=rank,
            requests_per_s=rank, energy=SimpleNamespace(total_wh=rank),
            ssd_write_ops=rank)
            for rank, system in enumerate(SYSTEM_NAMES, 1)}
        return runs, {}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figures, "_grid", stub_grid)
        return {name: fn() for name, fn in ALL_FIGURES.items()}


class TestRegistry:
    def test_every_series_has_its_floor(self, every_series):
        assert {name: result.floor for name, result
                in every_series.items()} == EXPECTED_FLOORS

    def test_every_series_renders(self, every_series):
        for result in every_series.values():
            assert set(result.measured) == set(result.paper)
            text = result.render()
            assert text.startswith(f"{result.figure}: {result.title}\n")
            assert "pairwise orderings preserved" in text

    def test_order_is_experiments_md_section_order(self, every_series):
        headings = re.findall(r"^## ((?:Figure|Table [56]).*)$",
                              EXPERIMENTS_MD.read_text(), re.MULTILINE)
        assert headings == [f"{result.figure}: {result.title}"
                            for result in every_series.values()]


class TestNewCLICommands:
    def test_analyze_command(self, capsys):
        assert cli_main(["analyze", "tpcc", "--requests", "400"]) == 0
        out = capsys.readouterr().out
        assert "delta-compressible" in out
        assert "5-20% band" in out

    def test_validate_command_uses_stub(self, monkeypatch, capsys):
        def fake_validate(n_requests=None):
            return ValidationSummary(shape_scores={"figure6a": 1.0},
                                     claims=[Claim("ok", True)])
        monkeypatch.setattr("repro.experiments.validate.validate",
                            fake_validate)
        assert cli_main(["validate"]) == 0
        assert "headline claims: 1/1" in capsys.readouterr().out
