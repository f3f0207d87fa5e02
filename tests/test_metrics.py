"""Unit tests for the energy, wear and CPU-utilisation models."""

import math

import pytest

from repro.baselines import PureSSD, RAID0Storage
from repro.devices.ssd import FlashSSD, SSDSpec
from repro.metrics.cpu import cpu_utilization
from repro.metrics.energy import EnergyReport, EnergySpec, measure_energy
from repro.metrics.wear import wear_report

from conftest import make_block, make_dataset


class TestEnergyModel:
    def test_ssd_energy_counts_per_op(self):
        system = PureSSD(make_dataset(32))
        system.read(0, 2)
        system.write(1, [make_block()])
        spec = EnergySpec()
        report = measure_energy(system, wall_time_s=1.0, app_cpu_s=0.0,
                                spec=spec)
        expected_ssd = 2 * spec.ssd_read_j + 1 * spec.ssd_write_j
        assert report.ssd_j == pytest.approx(expected_ssd)
        # A pure-SSD host still spins its system disk (the paper counts it).
        assert report.hdd_j == pytest.approx(spec.system_disk_w * 1.0)

    def test_hdd_energy_has_spin_component(self):
        system = RAID0Storage(make_dataset(32), ndisks=4)
        spec = EnergySpec()
        report = measure_energy(system, wall_time_s=10.0, app_cpu_s=0.0,
                                spec=spec)
        # Four spindles spinning for 10 s even with zero activity.
        assert report.hdd_j == pytest.approx(4 * spec.hdd_spin_w * 10.0)

    def test_active_hdd_costs_more(self):
        idle = RAID0Storage(make_dataset(64), ndisks=4)
        busy = RAID0Storage(make_dataset(64), ndisks=4)
        for lba in range(0, 60, 7):
            busy.read(lba)
        idle_j = measure_energy(idle, 5.0, 0.0).hdd_j
        busy_j = measure_energy(busy, 5.0, 0.0).hdd_j
        assert busy_j > idle_j

    def test_cpu_energy_counts_app_and_storage(self):
        system = PureSSD(make_dataset(16))
        system.cpu_time = 2.0
        spec = EnergySpec()
        report = measure_energy(system, 10.0, app_cpu_s=3.0, spec=spec)
        assert report.cpu_j == pytest.approx(spec.cpu_active_w * 5.0)

    def test_storage_cpu_override_excludes_load_phase(self):
        system = PureSSD(make_dataset(16))
        system.cpu_time = 2.0  # includes (say) ingest computation
        spec = EnergySpec()
        report = measure_energy(system, 10.0, app_cpu_s=0.0,
                                storage_cpu_s=0.5, spec=spec)
        assert report.cpu_j == pytest.approx(spec.cpu_active_w * 0.5)

    def test_wh_conversion_and_breakdown(self):
        report = EnergyReport(hdd_j=3600.0, ssd_j=7200.0, cpu_j=0.0)
        assert report.total_wh == pytest.approx(3.0)
        assert report.breakdown_wh() == {"hdd": 1.0, "ssd": 2.0, "cpu": 0.0}

    def test_negative_times_rejected(self):
        system = PureSSD(make_dataset(16))
        with pytest.raises(ValueError):
            measure_energy(system, -1.0, 0.0)

    def test_gc_traffic_costs_energy(self):
        spec = SSDSpec(pages_per_block=8, overprovision=0.15)
        ssd = FlashSSD(64, spec)
        for _ in range(10):
            for lba in range(64):
                ssd.write(lba, 1)

        class _Holder:
            cpu_time = 0.0

            def devices(self):
                return (ssd,)
        holder = _Holder()
        report = measure_energy(holder, 1.0, 0.0)
        base = ssd.write_blocks * EnergySpec().ssd_write_j \
            + ssd.read_blocks * EnergySpec().ssd_read_j
        assert report.ssd_j > base  # erases and moves cost extra


class TestWearModel:
    def worn_ssd(self) -> FlashSSD:
        ssd = FlashSSD(64, SSDSpec(pages_per_block=8, overprovision=0.15))
        for _ in range(10):
            for lba in range(64):
                ssd.write(lba, 1)
        return ssd

    def test_report_fields_consistent(self):
        ssd = self.worn_ssd()
        report = wear_report(ssd, wall_time_s=100.0)
        assert report.total_erases == ssd.total_erases
        assert report.max_erase_count >= report.mean_erase_count
        assert report.write_amplification >= 1.0
        assert report.host_write_pages == ssd.write_blocks

    def test_lifetime_projection_positive(self):
        ssd = self.worn_ssd()
        report = wear_report(ssd, wall_time_s=100.0)
        assert report.projected_lifetime_years is not None
        assert report.projected_lifetime_years > 0

    def test_fresh_ssd_has_unbounded_life(self):
        ssd = FlashSSD(64, SSDSpec(pages_per_block=8))
        report = wear_report(ssd, wall_time_s=10.0)
        assert report.projected_lifetime_years is None
        assert report.wear_evenness == 1.0

    def test_fewer_writes_project_longer_life(self):
        """The paper's Table 6 argument: fewer SSD writes, longer life."""
        light = FlashSSD(64, SSDSpec(pages_per_block=8, overprovision=0.15))
        heavy = FlashSSD(64, SSDSpec(pages_per_block=8, overprovision=0.15))
        for _round_ in range(3):
            for lba in range(64):
                light.write(lba, 1)
        for _round_ in range(30):
            for lba in range(64):
                heavy.write(lba, 1)
        light_report = wear_report(light, 100.0)
        heavy_report = wear_report(heavy, 100.0)
        if light_report.projected_lifetime_years is None:
            return  # light usage never triggered an erase: trivially longer
        assert light_report.projected_lifetime_years \
            > heavy_report.projected_lifetime_years

    def test_wall_time_validated(self):
        with pytest.raises(ValueError):
            wear_report(FlashSSD(64), 0.0)

    def test_zero_erase_evenness_is_level(self):
        # Division-by-zero edge: no erases means mean erase count 0;
        # evenness must report perfectly level (1.0), not blow up.
        ssd = FlashSSD(64, SSDSpec(pages_per_block=8))
        ssd.write(0, 4)  # a few programs, not enough to erase
        report = wear_report(ssd, wall_time_s=1.0)
        assert report.total_erases == 0
        assert report.mean_erase_count == 0.0
        assert report.wear_evenness == 1.0
        assert report.erase_stddev == 0.0
        assert report.projected_lifetime_years is None

    def test_single_logical_block_ssd(self):
        # Capacity <= pages_per_block: one logical flash block (plus
        # over-provisioned spares).  Hammering it must still produce a
        # finite, consistent report — the degenerate geometry the
        # evenness ratio is most fragile on.
        ssd = FlashSSD(8, SSDSpec(pages_per_block=8, overprovision=0.15))
        for _ in range(40):
            for lba in range(8):
                ssd.write(lba, 1)
        assert ssd.total_erases > 0
        report = wear_report(ssd, wall_time_s=10.0)
        assert report.wear_evenness >= 1.0
        assert math.isfinite(report.wear_evenness)
        assert report.max_erase_count <= report.total_erases
        assert report.projected_lifetime_years is not None
        assert report.projected_lifetime_years >= 0.0

    def test_evenness_ratio_matches_counts(self):
        ssd = FlashSSD(64, SSDSpec(pages_per_block=8, overprovision=0.15))
        for _ in range(10):
            for lba in range(64):
                ssd.write(lba, 1)
        report = wear_report(ssd, wall_time_s=10.0)
        counts = ssd.erase_counts()
        expected = max(counts) / (sum(counts) / len(counts))
        assert report.wear_evenness == pytest.approx(expected)


class TestCPUModel:
    def test_basic_ratio(self):
        assert cpu_utilization(1.0, 0.5, 3.0) == pytest.approx(0.5)

    def test_clamped_at_one(self):
        assert cpu_utilization(5.0, 5.0, 3.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cpu_utilization(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            cpu_utilization(-1.0, 0.0, 1.0)


class TestLifetimeProjection:
    def test_rows_and_rendering(self):
        from repro.experiments.lifetime import (lifetime_projection,
                                                render_lifetime_table)
        from repro.experiments.parallel import RunSpec
        rows = lifetime_projection(
            RunSpec(workload="sysbench", scale=0.1, n_requests=1500,
                    warmup_fraction=0.4))
        assert set(rows) == {"fusion-io", "dedup", "lru", "icash"}
        table = render_lifetime_table(rows)
        assert "icash" in table and "WA" in table
        # I-CASH's flash wears no faster than the same-budget caches'.
        assert rows["icash"].total_erases <= rows["lru"].total_erases
