"""Tests for the latency-path breakdown."""

from repro.experiments.breakdown import (read_breakdown,
                                         semiconductor_fraction,
                                         write_breakdown)
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system

from test_core_controller import family_dataset, small_config


def _fraction(breakdown, label):
    return breakdown.shares.get(label, 0) / breakdown.total


class TestBreakdown:
    def run_element(self):
        from repro.workloads import SysBenchWorkload
        workload = SysBenchWorkload(scale=0.25, n_requests=2500)
        system = make_system("icash", workload)
        run_benchmark(workload, system, warmup_fraction=0.2)
        return system

    def test_read_breakdown_accounts_all_sources(self):
        system = self.run_element()
        breakdown = read_breakdown(system)
        assert breakdown.total > 0
        assert _fraction(breakdown, "SSD reference + RAM delta") > 0.3
        assert "read path breakdown" in breakdown.render()

    def test_write_breakdown_shows_ram_dominance(self):
        system = self.run_element()
        breakdown = write_breakdown(system)
        ram = (_fraction(breakdown, "delta buffered in RAM")
               + _fraction(breakdown, "reference self-delta in RAM")
               + _fraction(breakdown, "data block in RAM"))
        assert ram > 0.7

    def test_semiconductor_fraction_high(self):
        """The paper's core mechanism: most reads never touch the HDD."""
        system = self.run_element()
        assert semiconductor_fraction(system) > 0.9

    def test_empty_controller(self):
        from repro.core import ICASHController
        controller = ICASHController(family_dataset(), small_config())
        assert semiconductor_fraction(controller) == 1.0
        assert "no operations" in read_breakdown(controller).render()
