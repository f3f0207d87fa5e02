"""Tests for the six benchmark generators, content model and multi-VM
composition."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.signatures import block_signatures, signature_overlap
from repro.delta.encoder import encode_delta
from repro.experiments.parallel import RunSpec, run_spec
from repro.experiments.systems import SYSTEM_NAMES
from repro.sim.request import BLOCK_SIZE, OpType
from repro.workloads import (ALL_WORKLOADS, HadoopWorkload,
                             LoadSimWorkload, MultiVMWorkload,
                             RUBiSWorkload, SpecSFSWorkload,
                             SysBenchWorkload, TPCCWorkload)
from repro.workloads.content import (ContentModel, clear_dataset_cache,
                                     sprinkle_family_noise)

from reference import dataset as reference_dataset


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


class TestContentModel:
    def make(self, **overrides):
        defaults = dict(n_blocks=256, n_families=8, mutation_fraction=0.1,
                        duplicate_fraction=0.1, content_seed=5)
        defaults.update(overrides)
        return ContentModel(**defaults)

    def test_dataset_shape_and_determinism(self):
        model = self.make()
        a = model.build_dataset()
        b = self.make().build_dataset()
        assert a.shape == (256, BLOCK_SIZE)
        assert np.array_equal(a, b)

    def test_family_members_are_similar(self):
        model = self.make()
        dataset = model.build_dataset()
        fam = model.family_of
        members = np.flatnonzero(fam == fam[0])
        if len(members) < 2:
            pytest.skip("family too small for this seed")
        a, b = dataset[members[0]], dataset[members[1]]
        delta = encode_delta(a, b)
        assert delta.size_bytes < BLOCK_SIZE // 4
        overlap = signature_overlap(block_signatures(a),
                                    block_signatures(b))
        assert overlap >= 4

    def test_duplicates_exist(self):
        model = self.make(duplicate_fraction=0.5)
        dataset = model.build_dataset()
        fam = model.family_of
        exact = sum(
            1 for lba in range(256)
            if np.array_equal(dataset[lba], model.duplicate_of(lba)))
        assert exact > 0

    def test_mutation_changes_bounded_fraction(self, rng):
        model = self.make(mutation_fraction=0.1)
        block = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        mutated = model.mutate(block, rng, lba=3)
        changed = int((mutated != block).sum())
        assert 0 < changed <= int(BLOCK_SIZE * 0.1) + 8

    def test_repeated_mutations_stay_anchored(self, rng):
        """Anchored updates keep a block's drift from its original
        bounded — the property that keeps deltas small over time."""
        model = self.make(mutation_fraction=0.08)
        original = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        current = original
        for _ in range(20):
            current = model.mutate(current, rng, lba=7)
        delta = encode_delta(current, original)
        # Without anchoring, 20 x 8% writes would touch ~80% of the block.
        assert delta.changed_bytes < BLOCK_SIZE // 2

    def test_rewrite_is_family_similar(self, rng):
        model = self.make()
        fresh = model.rewrite(5, rng)
        base = model.duplicate_of(5)
        assert encode_delta(fresh, base).size_bytes < BLOCK_SIZE // 8

    @pytest.mark.parametrize("n_blocks, n_families",
                             [(1, 1), (64, 4), (300, 17), (257, 257)])
    @pytest.mark.parametrize("duplicates", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("content_seed", [0, 2011])
    def test_noise_is_the_per_block_loop(self, n_blocks, n_families,
                                         duplicates, content_seed):
        """One draw for every block's noise: the bytes and the final
        generator state of the frozen per-block loop."""
        clear_dataset_cache()
        model = self.make(n_blocks=n_blocks, n_families=n_families,
                          duplicate_fraction=duplicates,
                          content_seed=content_seed)
        expected, loop_state = reference_dataset.loop_dataset(model)
        assert np.array_equal(model.build_dataset(), expected)
        noisy = model._bases[model.family_of]
        rng = np.random.default_rng(content_seed + 2)
        sprinkle_family_noise(noisy, np.flatnonzero(model._unique_mask),
                              rng)
        assert np.array_equal(noisy, expected)
        assert rng.bit_generator.state == loop_state

    def test_rewrite_draws_what_the_loop_draws(self):
        """From any generator state — one with a buffered 32-bit half
        included — a rewrite consumes the loop's draws."""
        model = self.make()
        for skew in range(3):
            ours, loops = (np.random.default_rng(9) for _ in range(2))
            for rng in (ours, loops):
                rng.integers(0, 10, size=skew)
            expected = model.duplicate_of(5)
            reference_dataset.sprinkle_noise_loop(
                expected[None], np.zeros(1, dtype=int), loops)
            assert np.array_equal(model.rewrite(5, ours), expected)
            assert ours.bit_generator.state == loops.bit_generator.state

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(n_families=0)
        with pytest.raises(ValueError):
            self.make(mutation_fraction=1.5)
        with pytest.raises(ValueError):
            self.make(duplicate_fraction=-0.1)


class TestGeneratorContract:
    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_stream_is_deterministic_and_restartable(self, workload_cls):
        workload = workload_cls(scale=0.05, n_requests=120)
        first = [(r.op, r.lba, r.nblocks) for r in workload.requests()]
        second = [(r.op, r.lba, r.nblocks) for r in workload.requests()]
        assert first == second

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_shadow_tracks_writes(self, workload_cls):
        workload = workload_cls(scale=0.05, n_requests=150)
        for request in workload.requests():
            if request.is_write:
                for offset, block in enumerate(request.payload):
                    assert np.array_equal(
                        workload.shadow[request.lba + offset], block)

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_requests_stay_in_bounds(self, workload_cls):
        workload = workload_cls(scale=0.05, n_requests=200)
        for request in workload.requests():
            assert 0 <= request.lba
            assert request.lba + request.nblocks <= workload.n_blocks

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_ssd_budget_is_a_tenth(self, workload_cls):
        workload = workload_cls(n_requests=10)
        assert workload.ssd_budget_blocks \
            == max(64, workload.n_blocks // 10)

    def test_different_seeds_differ(self):
        a = SysBenchWorkload(scale=0.05, n_requests=100, seed=1)
        b = SysBenchWorkload(scale=0.05, n_requests=100, seed=2)
        sa = [(r.op, r.lba) for r in a.requests()]
        sb = [(r.op, r.lba) for r in b.requests()]
        assert sa != sb


class TestOneFrozenImage:
    """A data set is built once: the memoised matrix is what every
    workload, shadow and system sits on, and nothing can write to it."""

    def workloads(self):
        return [cls(scale=0.05, n_requests=60) for cls in ALL_WORKLOADS] \
            + [MultiVMWorkload(TPCCWorkload, n_vms=3, scale=0.05,
                               n_requests_per_vm=20)]

    def test_whatever_a_workload_hands_out_is_read_only(self):
        for workload in self.workloads():
            for _ in workload.requests():
                pass
            dataset = workload.build_dataset()
            whole = np.asarray(workload.shadow)
            assert whole.shape == dataset.shape, workload.name
            assert len(workload.shadow) == workload.n_blocks
            for array in (dataset, workload.shadow[0]):
                assert not array.flags.writeable, workload.name
            # A materialised shadow is read-only or a fresh private array.
            assert not whole.flags.writeable \
                or not np.shares_memory(whole, dataset), workload.name
            with pytest.raises(ValueError):
                dataset[0, 0] = 1
            with pytest.raises(ValueError):
                dataset.flags.writeable = True

    def test_instances_with_one_dataset_key_share_the_image(self):
        first = SysBenchWorkload(scale=0.05, n_requests=50, seed=3)
        second = SysBenchWorkload(scale=0.05, n_requests=80, seed=3)
        assert first.content.dataset_key == second.content.dataset_key
        memo = first.content.build_dataset()
        assert not memo.flags.writeable
        for workload in (first, second):
            assert np.shares_memory(workload.build_dataset(), memo)
        other = SysBenchWorkload(scale=0.05, n_requests=50, seed=4)
        assert not np.shares_memory(other.build_dataset(), memo)

    def test_runs_leave_the_memoised_image_untouched(self):
        spec = RunSpec(workload="specsfs", scale=0.25, n_requests=400)
        memo = spec.build_workload().content.build_dataset()
        digest = _sha256(memo)
        for system in SYSTEM_NAMES:
            run_spec(replace(spec, system=system))
            assert spec.build_workload().content.build_dataset() is memo
            assert _sha256(memo) == digest, system


class TestTable4Profiles:
    """Measured streams must match the paper's Table 4 characteristics:
    read/write mix and request sizes (within sampling tolerance)."""

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_read_fraction_matches_paper(self, workload_cls):
        workload = workload_cls(scale=0.1, n_requests=2500)
        measured = workload.measured_profile()
        assert measured.read_fraction == pytest.approx(
            workload_cls.paper_profile.read_fraction, abs=0.05)

    @pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
    def test_request_sizes_roughly_match_paper(self, workload_cls):
        workload = workload_cls(scale=0.1, n_requests=2500)
        measured = workload.measured_profile()
        paper = workload_cls.paper_profile
        if measured.n_reads > 100:
            assert measured.avg_read_bytes == pytest.approx(
                paper.avg_read_bytes, rel=0.5)
        if measured.n_writes > 100:
            # Write sizes are clamped at max_request_blocks, so very
            # large paper means (Hadoop's 99 KB) shrink; allow headroom.
            assert measured.avg_write_bytes == pytest.approx(
                paper.avg_write_bytes, rel=0.6)

    def test_specsfs_is_write_dominated(self):
        profile = SpecSFSWorkload(scale=0.1, n_requests=1500)\
            .measured_profile()
        assert profile.read_fraction < 0.2

    def test_rubis_is_read_dominated(self):
        profile = RUBiSWorkload(scale=0.1, n_requests=1500)\
            .measured_profile()
        assert profile.read_fraction > 0.95

    def test_profile_row_renders(self):
        profile = SysBenchWorkload.paper_profile
        row = profile.format_row()
        assert "SysBench" in row and "reads=" in row


class TestAddressPatterns:
    def test_zipf_concentrates_accesses(self):
        workload = SysBenchWorkload(scale=0.5, n_requests=3000)
        counts = {}
        for request in workload.requests():
            counts[request.lba] = counts.get(request.lba, 0) + 1
        top = sorted(counts.values(), reverse=True)
        # The top 10% of touched blocks absorb the majority of accesses.
        cut = max(1, len(top) // 10)
        assert sum(top[:cut]) > 0.5 * sum(top)

    def test_loadsim_is_nearly_uniform(self):
        workload = LoadSimWorkload(scale=0.25, n_requests=3000)
        counts = {}
        for request in workload.requests():
            counts[request.lba] = counts.get(request.lba, 0) + 1
        top = sorted(counts.values(), reverse=True)
        cut = max(1, len(top) // 10)
        assert sum(top[:cut]) < 0.45 * sum(top)

    def test_hadoop_is_sequential_heavy(self):
        workload = HadoopWorkload(scale=0.25, n_requests=2000)
        sequential = 0
        last_end = None
        for request in workload.requests():
            if last_end is not None and request.lba == last_end:
                sequential += 1
            last_end = request.lba + request.nblocks
        assert sequential > 400


class TestMultiVM:
    def test_images_are_near_clones(self):
        multivm = MultiVMWorkload(TPCCWorkload, n_vms=3, scale=0.1,
                                  n_requests_per_vm=50)
        assert multivm.cross_vm_similarity() > 0.9

    def test_divergence_grows_with_vm_index(self):
        multivm = MultiVMWorkload(TPCCWorkload, n_vms=5, scale=0.1,
                                  n_requests_per_vm=50)
        golden = multivm.vms[0].build_dataset()
        identical = []
        for vm in multivm.vms[1:]:
            image = vm.build_dataset()
            identical.append(int((image == golden).all(axis=1).sum()))
        assert identical[0] >= identical[-1]

    def test_requests_translate_to_private_regions(self):
        multivm = MultiVMWorkload(RUBiSWorkload, n_vms=3, scale=0.1,
                                  n_requests_per_vm=100)
        for request in multivm.requests():
            region = request.lba // multivm.vm_blocks
            end_region = (request.lba + request.nblocks - 1) \
                // multivm.vm_blocks
            assert region == end_region == request.vm_id

    def test_round_robin_interleaving(self):
        multivm = MultiVMWorkload(TPCCWorkload, n_vms=3, scale=0.1,
                                  n_requests_per_vm=10)
        vm_ids = [r.vm_id for r in multivm.requests()]
        assert vm_ids[:3] == [0, 1, 2]
        assert len(vm_ids) == 30

    def test_shadow_concatenates_vm_spaces(self):
        multivm = MultiVMWorkload(TPCCWorkload, n_vms=2, scale=0.1,
                                  n_requests_per_vm=10)
        assert len(multivm.shadow) == multivm.n_blocks

    def test_divergence_is_private_to_each_vm(self):
        golden = TPCCWorkload(scale=0.1, n_requests=10, seed=2011)
        digest = _sha256(golden.build_dataset())
        multivm = MultiVMWorkload(TPCCWorkload, n_vms=5, scale=0.1,
                                  n_requests_per_vm=10)
        image = multivm.vms[0].build_dataset()
        assert np.shares_memory(image, golden.build_dataset())
        for vm in multivm.vms[1:]:
            assert not np.shares_memory(vm.build_dataset(), image)
            assert not vm.build_dataset().flags.writeable
            assert _sha256(vm.build_dataset()) != digest
        assert _sha256(image) == digest
        whole = multivm.build_dataset()
        assert not whole.flags.writeable
        assert np.array_equal(whole[:multivm.vm_blocks], image)

    def test_compute_overlap_scales_app_time(self):
        single = TPCCWorkload(scale=0.1, n_requests=10)
        multivm = MultiVMWorkload(TPCCWorkload, n_vms=5, scale=0.1,
                                  n_requests_per_vm=10)
        assert multivm.app_compute_per_tx == pytest.approx(
            single.app_compute_per_tx / 5)

    def test_needs_at_least_one_vm(self):
        with pytest.raises(ValueError):
            MultiVMWorkload(TPCCWorkload, n_vms=0)
