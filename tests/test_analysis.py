"""Tests for the content-locality analysis package and the validation
harness plumbing."""

import numpy as np
import pytest

from repro.analysis import analyze_dataset, analyze_writes
from repro.core import ICASHController
from repro.workloads import SysBenchWorkload

from conftest import make_dataset
from test_core_controller import family_dataset, small_config


class TestDatasetLocality:
    def test_random_dataset_has_no_locality(self):
        locality = analyze_dataset(make_dataset(64))
        assert locality.duplicate_ratio == 0.0
        assert locality.compressible_fraction() < 0.1

    def test_family_dataset_is_compressible(self):
        locality = analyze_dataset(family_dataset(128))
        assert locality.compressible_fraction() > 0.8
        assert locality.median_delta_bytes() < 1024

    def test_duplicates_counted(self):
        dataset = make_dataset(32)
        dataset[1] = dataset[0]
        dataset[2] = dataset[0]
        dataset[10] = dataset[9]
        locality = analyze_dataset(dataset)
        assert locality.duplicate_blocks == 5  # 3 + 2
        assert locality.duplicate_classes == 2
        assert locality.duplicate_ratio == pytest.approx(5 / 32)

    def test_sampling_bounds_work(self):
        locality = analyze_dataset(family_dataset(128), sample=16)
        assert len(locality.delta_sizes) == 16

    def test_summary_renders(self):
        text = analyze_dataset(family_dataset(64)).summary()
        assert "duplicates" in text and "delta-compressible" in text

    def test_workload_dataset_matches_paper_band(self):
        """The synthetic workloads must *exhibit* the content locality
        the paper's §2.2 claims for real systems."""
        workload = SysBenchWorkload(scale=0.1, n_requests=10)
        locality = analyze_dataset(workload.build_dataset(), sample=300)
        assert locality.compressible_fraction() > 0.7


class TestWriteLocality:
    def test_overwrite_fractions_measured(self):
        initial = make_dataset(16)
        from repro.sim.request import make_write
        new = initial[3].copy()
        new[0:409] = 0xFF  # ~10% of the block
        stream = [make_write(3, [new])]
        writes = analyze_writes(initial, stream)
        assert writes.n_overwrites == 1
        assert writes.change_fractions[0] == pytest.approx(0.1, abs=0.02)

    def test_workload_writes_sit_in_paper_band(self):
        workload = SysBenchWorkload(scale=0.1, n_requests=800)
        writes = analyze_writes(workload.build_dataset(),
                                workload.requests())
        assert writes.n_overwrites > 100
        assert 0.03 < writes.mean_change_fraction() < 0.25
        assert writes.within_paper_band() > 0.4

    def test_summary_renders(self):
        workload = SysBenchWorkload(scale=0.05, n_requests=200)
        text = analyze_writes(workload.build_dataset(),
                              workload.requests()).summary()
        assert "overwrites" in text


class TestReferenceCoverage:
    """Section 5.1's reference / associate / independent split, as
    ``ICASHController.block_kind_counts()`` reports it."""

    def test_ingested_element_shows_paper_structure(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        counts = controller.block_kind_counts()
        n_blocks = controller.capacity_blocks
        assert counts["reference"] / n_blocks < 0.25
        assert counts["associate"] / n_blocks > 0.5

    def test_fresh_element_has_no_coverage(self):
        controller = ICASHController(family_dataset(), small_config())
        assert controller.block_kind_counts()["associate"] == 0


class TestRebuildController:
    def test_restarted_element_serves_and_continues(self, rng):
        from repro.core.recovery import rebuild_controller
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        shadow = dataset.copy()
        for _ in range(300):
            lba = int(rng.integers(0, 256))
            content = shadow[lba].copy()
            content[0:50] = rng.integers(0, 256, 50)
            shadow[lba] = content
            controller.write(lba, [content])
        controller.flush()

        fresh = rebuild_controller(controller)
        # 1. It serves the pre-crash content...
        for lba in range(0, 256, 7):
            _, (out,) = fresh.read(lba)
            assert np.array_equal(out, shadow[lba])
        # 2. ...keeps the SSD population...
        assert fresh.reference_lbas == controller.reference_lbas
        assert fresh.spilled_lbas == controller.spilled_lbas
        # 3. ...and keeps operating normally afterwards.
        for _ in range(200):
            lba = int(rng.integers(0, 256))
            content = shadow[lba].copy()
            content[100:150] = rng.integers(0, 256, 50)
            shadow[lba] = content
            fresh.write(lba, [content])
        fresh.flush()
        for lba in range(0, 256, 11):
            _, (out,) = fresh.read(lba)
            assert np.array_equal(out, shadow[lba])

    def test_rebuild_starts_with_cold_ram(self):
        from repro.core.recovery import rebuild_controller
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        fresh = rebuild_controller(controller)
        assert fresh.segments.used_segments == 0
        assert fresh.cache.data_blocks_used == 0
        assert fresh.heatmap.total_accesses == 0
