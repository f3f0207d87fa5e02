"""Tests for the extension subsystems: the NVRAM log variant, the host
page-cache wrapper, the sweep utility and the CLI."""

import numpy as np
import pytest

from repro.baselines import PureSSD, RAID0Storage
from repro.cli import main as cli_main
from repro.core import ICASHController
from repro.devices.nvram import NVRAM
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_benchmark
from repro.experiments.sweeps import (SweepPoint, render_sweep,
                                      sweep_config)
from repro.experiments.systems import make_system
from repro.sim.pagecache import HostCachedSystem
from repro.sim.request import BLOCK_SIZE

from conftest import make_block, make_dataset
from test_core_controller import family_dataset, small_config


class TestNVRAMDevice:
    def test_read_write_latencies(self):
        nvram = NVRAM(1024)
        read = nvram.read(0, 1)
        write = nvram.write(0, 1)
        assert read == pytest.approx(nvram.spec.read_s)
        assert write == pytest.approx(nvram.spec.write_s)
        assert write > read

    def test_streaming_blocks_cheaper(self):
        nvram = NVRAM(1024)
        eight = nvram.write(0, 8)
        assert eight < 8 * nvram.spec.write_s

    def test_orders_faster_than_hdd(self):
        from repro.devices.hdd import HardDiskDrive
        nvram = NVRAM(1024)
        hdd = HardDiskDrive(100_000)
        hdd.read(50_000, 1)  # park the head far away
        assert nvram.write(0, 1) * 100 < hdd.write(0, 1)

    def test_bounds(self):
        nvram = NVRAM(16)
        with pytest.raises(ValueError):
            nvram.read(16, 1)


class TestNVRAMLogVariant:
    def make(self, **overrides) -> ICASHController:
        return ICASHController(
            family_dataset(), small_config(log_on_nvram=True, **overrides))

    def test_content_roundtrip(self, rng):
        controller = self.make()
        controller.ingest()
        shadow = {}
        for _ in range(300):
            lba = int(rng.integers(0, 256))
            if rng.random() < 0.5:
                content = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
                controller.write(lba, [content])
                shadow[lba] = content
            elif lba in shadow:
                _, (out,) = controller.read(lba)
                assert np.array_equal(out, shadow[lba])

    def test_log_appends_hit_nvram_not_hdd(self):
        controller = self.make()
        controller.ingest()
        hdd_writes = controller.hdd.write_ops
        lba = next(iter(controller.delta_map_snapshot()))
        content = controller.backing.get(lba)
        content[0:30] = 1
        controller.write(lba, [content])
        controller.flush()
        assert controller.nvram.write_ops > 0
        assert controller.hdd.write_ops == hdd_writes

    def test_flush_is_orders_faster(self):
        slow = ICASHController(family_dataset(), small_config())
        fast = self.make()
        for controller in (slow, fast):
            controller.ingest()
            lba = next(iter(controller.delta_map_snapshot()))
            content = controller.backing.get(lba)
            content[0:30] = 1
            controller.write(lba, [content])
            # Park the HDD head away from the log tail, as a busy data
            # region would: the HDD flush now pays a real seek.
            controller.hdd.read(0, 1)
        assert fast.flush() * 10 < slow.flush()

    def test_recovery_from_nvram_log(self):
        from repro.core.recovery import recover
        controller = self.make()
        controller.ingest()
        lba = next(iter(controller.delta_map_snapshot()))
        content = controller.backing.get(lba)
        content[0:30] = 9
        controller.write(lba, [content])
        controller.flush()
        assert np.array_equal(recover(controller).read(lba), content)

    def test_devices_include_nvram(self):
        names = [d.name for d in self.make().devices()]
        assert "nvram" in names


class TestHostPageCache:
    def make(self, cache_blocks: int = 16) -> HostCachedSystem:
        return HostCachedSystem(PureSSD(make_dataset(64)), cache_blocks)

    def test_content_roundtrip(self, rng):
        system = self.make()
        shadow = {lba: system.inner.backing.get(lba) for lba in range(64)}
        for _ in range(300):
            lba = int(rng.integers(0, 64))
            if rng.random() < 0.5:
                content = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
                system.write(lba, [content])
                shadow[lba] = content
            else:
                _, (out,) = system.read(lba)
                assert np.array_equal(out, shadow[lba])

    def test_hits_avoid_the_inner_system(self):
        system = self.make()
        system.read(3)
        inner_reads = system.inner.ssd.read_ops
        latency, _ = system.read(3)
        assert system.inner.ssd.read_ops == inner_reads
        assert latency < 2e-6
        assert system.page_hits > 0

    def test_writes_are_absorbed_until_sync(self):
        system = self.make()
        system.write(0, [make_block(1)])
        assert system.inner.ssd.write_ops == 0
        system.flush()
        assert system.inner.ssd.write_ops == 1

    def test_dirty_eviction_writes_back_in_background(self):
        system = self.make(cache_blocks=1)
        system.write(0, [make_block(1)])
        system.write(1, [make_block(2)])  # evicts dirty page 0
        assert system.page_writebacks == 1
        assert system.inner.background_time > 0
        # Block 0's content must not be lost.
        _, (out,) = system.read(0)
        assert (out == 1).all()

    def test_miss_runs_fetch_as_one_span(self):
        system = self.make(cache_blocks=32)
        system.read(0, 8)
        assert system.inner.ssd.read_ops == 1  # one 8-block fetch

    def test_wraps_any_system(self, rng):
        wrapped = HostCachedSystem(RAID0Storage(make_dataset(64)), 8)
        _, (out,) = wrapped.read(5)
        assert np.array_equal(out, wrapped.inner.backing.get(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(cache_blocks=0)

    def test_big_cache_narrows_the_gap_and_slows_nothing(self):
        """A host cache of a quarter of the data set hides part of the
        gap between pure SSD and I-CASH on SysBench, and makes neither
        slower."""
        tps = {}
        for name in ("fusion-io", "icash"):
            for fraction in (0.0, 0.25):
                workload = RunSpec("sysbench",
                                   n_requests=1500).build_workload()
                system = make_system(name, workload)
                if fraction:
                    system = HostCachedSystem(
                        system, max(8, int(workload.n_blocks * fraction)))
                tps[name, fraction] = run_benchmark(
                    workload, system, warmup_fraction=0.4
                ).transactions_per_s
        gap_none = abs(tps["icash", 0.0] - tps["fusion-io", 0.0])
        gap_big = abs(tps["icash", 0.25] - tps["fusion-io", 0.25])
        assert gap_big <= gap_none * 1.5
        for name in ("fusion-io", "icash"):
            assert tps[name, 0.25] >= tps[name, 0.0] * 0.95


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
