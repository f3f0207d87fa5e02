"""Unit tests for the energy and CPU-utilisation models."""

import pytest

from repro.baselines import PureSSD, RAID0Storage
from repro.devices.ssd import FlashSSD, SSDSpec
from repro.metrics.cpu import cpu_utilization
from repro.metrics.energy import EnergyReport, EnergySpec, measure_energy

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
