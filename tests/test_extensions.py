"""Tests for the extension subsystems: the NVRAM log variant, the sweep
utility and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import ICASHController
from repro.devices.nvram import NVRAM
from repro.experiments.parallel import RunSpec
from repro.experiments.sweeps import (SweepPoint, render_sweep,
                                      sweep_config)
from repro.sim.request import BLOCK_SIZE

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
