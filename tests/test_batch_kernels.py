"""Batch kernels, memoised streams, and the persistent worker pool.

Three families of guarantees:

* **golden equivalence** — every vectorised signature kernel in
  :mod:`repro.core.signatures` (and the batched heatmap entry points)
  must be bit-identical to its scalar twin on random shapes,
  non-contiguous views, empty batches and single blocks, and the
  ingest sweep must reproduce the digest frozen while it still had a
  batched twin;
* **memoisation transparency** — the request-stream cache and the
  controller's delta-reconstruction memo must be invisible: identical
  requests, shadow state and read contents whether or not a cache was
  hit;
* **pool lifetime** — the worker pool is reused across waves, grown
  never shrunk, and :func:`shutdown_parallel` always tears it down.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heatmap import Heatmap
from repro.core.signatures import (SignatureScheme, _hash_signatures,
                                   _sampled_signatures, block_signatures,
                                   block_signatures_batch,
                                   block_signatures_many, signature_tuples)
from repro.delta.encoder import Delta
from repro.sim.request import BLOCK_SIZE

from reference import ingest as ingest_reference


def _random_batch(rng, n):
    return rng.integers(0, 256, size=(n, BLOCK_SIZE), dtype=np.uint8)


# ---------------------------------------------------------------------------
# block_signatures_batch vs the scalar implementation
# ---------------------------------------------------------------------------


class TestSignatureBatchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 24),
           scheme=st.sampled_from(list(SignatureScheme)))
    def test_matches_scalar_on_random_batches(self, seed, n, scheme):
        rng = np.random.default_rng(seed)
        batch = _random_batch(rng, n)
        matrix = block_signatures_batch(batch, scheme)
        assert matrix.shape == (n, 8) and matrix.dtype == np.uint8
        assert signature_tuples(matrix) \
            == [block_signatures(batch[i], scheme) for i in range(n)]

    def test_non_contiguous_view_input(self, rng):
        doubled = _random_batch(rng, 12)
        view = doubled[::2]  # stride-2 rows: not C-contiguous
        assert not view.flags.c_contiguous
        assert signature_tuples(block_signatures_batch(view)) \
            == [block_signatures(row) for row in view]

    def test_single_block_and_empty_batch(self, rng):
        one = _random_batch(rng, 1)
        assert signature_tuples(block_signatures_batch(one)) \
            == [block_signatures(one[0])]
        empty = block_signatures_batch(
            np.empty((0, BLOCK_SIZE), dtype=np.uint8))
        assert empty.shape == (0, 8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            block_signatures_batch(np.zeros((2, 100), dtype=np.uint8))
        with pytest.raises(ValueError):
            block_signatures_batch(
                np.zeros((2, BLOCK_SIZE), dtype=np.uint16))


def _reference(scheme):
    return (_sampled_signatures if scheme is SignatureScheme.SAMPLED
            else _hash_signatures)


class TestBlockSignaturesMany:
    def test_matches_scalar_list(self, rng):
        blocks = list(_random_batch(rng, 10))
        for scheme in SignatureScheme:
            expected = [_reference(scheme)(b) for b in blocks]
            assert block_signatures_many(blocks, scheme) == expected
            assert [block_signatures(b, scheme) for b in blocks] \
                == expected

    @pytest.mark.parametrize("scheme", list(SignatureScheme))
    def test_non_contiguous_views(self, rng, scheme):
        wide = _random_batch(rng, 6).reshape(3, 2 * BLOCK_SIZE)
        views = list(wide[:, ::2])  # every other byte: stride-2 blocks
        assert not any(view.flags.c_contiguous for view in views)
        expected = [_reference(scheme)(np.ascontiguousarray(view))
                    for view in views]
        assert block_signatures_many(views, scheme) == expected
        assert [block_signatures(v, scheme) for v in views] == expected

    @pytest.mark.parametrize("scheme", list(SignatureScheme))
    def test_non_uint8_layouts(self, rng, scheme):
        """Signatures are a function of a block's bytes: a signed-byte
        view and an (8, 512) sub-block matrix of the same bytes agree
        with the flat block."""
        block = _random_batch(rng, 1)[0]
        signed = block.view(np.int8)
        matrix = block.reshape(8, BLOCK_SIZE // 8)
        expected = _reference(scheme)(block)
        assert _reference(scheme)(signed) == expected
        for layout in (signed, matrix):
            assert block_signatures(layout, scheme) == expected
        assert block_signatures_many([signed, matrix, block], scheme) \
            == [expected] * 3

    def test_empty_batch(self):
        for scheme in SignatureScheme:
            assert block_signatures_many([], scheme) == []

    @pytest.mark.parametrize("scheme", list(SignatureScheme))
    def test_request_repeating_one_block(self, rng, scheme):
        block = _random_batch(rng, 1)[0]
        frozen = block.copy()
        frozen.flags.writeable = False
        result = block_signatures_many([block, frozen, block], scheme)
        assert result == [_reference(scheme)(block)] * 3

    def test_rejects_a_block_of_the_wrong_size(self):
        with pytest.raises(ValueError):
            block_signatures_many([np.zeros(100, dtype=np.uint8)])
        with pytest.raises(ValueError):
            block_signatures(np.zeros(100, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Heatmap batch entry points
# ---------------------------------------------------------------------------


class TestHeatmapBatch:
    def test_record_and_popularity_match_scalar(self, rng):
        matrix = np.asarray(
            signature_tuples(
                block_signatures_batch(_random_batch(rng, 20))),
            dtype=np.int64)
        scalar, batch = Heatmap(), Heatmap()
        for row in matrix:
            scalar.record(tuple(int(v) for v in row))
        batch.record_batch(matrix)
        assert scalar.total_accesses == batch.total_accesses
        pops = batch.popularity_batch(matrix)
        for i, row in enumerate(matrix):
            sig = tuple(int(v) for v in row)
            assert scalar.popularity(sig) == batch.popularity(sig)
            assert int(pops[i]) == scalar.popularity(sig)


# ---------------------------------------------------------------------------
# Ingest sweep: bit-identical to what both sweeps of the parent produced
# ---------------------------------------------------------------------------


def _controller_state(controller):
    """What ingest leaves behind beyond the digest: the cached virtual
    blocks in LRU order with each one's reference and dirtiness, and the
    signature index."""
    records, queue = controller._delta_map, controller._dirty_delta_lbas
    blocks = [(vb.lba, vb.kind,
               records[vb.lba].ref_lba if vb.lba in records else None,
               vb.signatures, vb.delta, vb.lba in queue)
              for vb in controller.cache.lru_order()]
    index = controller.scanner.signature_index
    return blocks, sorted((lba, sigs) for lba, (_vb, sigs)
                          in index._entries.items())


class TestIngestSweepEquivalence:
    @pytest.mark.parametrize("case", sorted(ingest_reference.CASES))
    def test_ingest_reproduces_frozen_digest(self, case):
        """References, delta map, log bytes, ``cpu_time``, ingest
        latency and counters, against ``tests/reference/
        ingest_digest.json``."""
        assert ingest_reference.ingested_digest(case) \
            == ingest_reference.frozen()[case]

    @pytest.mark.parametrize("case", sorted(ingest_reference.CASES))
    def test_scalar_oracle_reproduces_frozen_digest(self, case):
        """The block-by-block sweep the planner is held to reproduces
        the same digests."""
        assert ingest_reference.ingested_digest(
            case, ingest_reference.scalar_ingest) \
            == ingest_reference.frozen()[case]

    def test_ties_go_to_the_first_shared_row_then_the_first_promoted(self):
        """The order a per-block tally over ``(row, value)`` cells meets
        the references in: most rows, then the earliest first shared
        row, then the earlier promotion."""
        from repro.core.ingest import plan_ingest

        signatures = np.array([
            [1, 2, 3, 4, 5, 6, 7, 8],          # promoted: no candidate
            [1, 20, 21, 22, 23, 24, 25, 26],   # 1 row with 0: promoted
            [1, 2, 3, 4, 23, 24, 25, 99],      # 4 rows each, from row 0
            [77, 20, 21, 22, 5, 6, 7, 99],     # 3 each, 1 from row 1
        ], dtype=np.uint8)
        blocks = np.zeros((4, BLOCK_SIZE), dtype=np.uint8)
        plan = plan_ingest(blocks, signatures, min_match=3,
                           accept_bytes=2048, free_slots=4)
        assert plan.candidates == [0, 1, 2, 2]
        assert plan.references[2:] == [0, 1]
        assert [d is None for d in plan.deltas] == [True, True, False,
                                                    False]

    def test_ssd_fills_mid_sweep(self):
        frozen = ingest_reference.frozen()["specsfs_ssd_full"]
        controller = ingest_reference.controller_for("specsfs_ssd_full")
        independents = (controller.capacity_blocks - frozen["references"]
                        - frozen["delta_map"])
        assert frozen["references"] \
            == controller.config.ssd_capacity_blocks
        assert independents > 0

    @settings(max_examples=60, deadline=None)
    @given(n_blocks=st.integers(1, 96), families=st.integers(1, 24),
           duplicates=st.sampled_from([0.0, 1.0]),
           content_seed=st.integers(0, 2**16),
           min_match=st.integers(0, 8),
           ssd=st.sampled_from(["none", "partial", "ample"]),
           scheme=st.sampled_from(list(SignatureScheme)))
    def test_planner_matches_scalar_sweep(self, n_blocks, families,
                                          duplicates, content_seed,
                                          min_match, ssd, scheme):
        """Every decision and side effect of the planned sweep equals
        the block-by-block oracle's: identity deltas and ties
        (``duplicate_fraction`` 1), "no candidate" against "tally below
        threshold" (``min_signature_match`` 0 and up), and an SSD with
        no slot, one that fills mid-sweep and one that never does."""
        from repro.core.config import ICASHConfig
        from repro.core.controller import ICASHController
        from repro.workloads.content import ContentModel

        families = min(families, n_blocks)
        data = ContentModel(n_blocks, families, 0.1, duplicates,
                            content_seed).build_dataset()
        slots = {"none": 0, "partial": max(1, families // 2),
                 "ample": n_blocks}[ssd]
        config = ICASHConfig(ssd_capacity_blocks=max(1, slots),
                             min_signature_match=min_match,
                             signature_scheme=scheme)
        oracle, planned = (ICASHController(data, config) for _ in range(2))
        if not slots:
            for controller in (oracle, planned):
                controller._free_slots.clear()
        expected = ingest_reference.ingest_digest(
            oracle, ingest_reference.scalar_ingest(oracle))
        assert ingest_reference.ingest_digest(planned, planned.ingest()) \
            == expected
        assert _controller_state(planned) == _controller_state(oracle)


# ---------------------------------------------------------------------------
# Heatmap deferred scatter: buffering is invisible to every reader
# ---------------------------------------------------------------------------


class TestHeatmapDeferredScatter:
    def test_readers_observe_buffered_records(self):
        heatmap = Heatmap(rows=2, values=8)
        heatmap.record((1, 2))
        heatmap.record((1, 3))
        # total_accesses is eager; the scatter itself is pending.
        assert heatmap.total_accesses == 2
        assert heatmap._pending
        assert heatmap.popularity((1, 2)) == 3  # 2 hits row0=1, 1 hit row1=2
        assert not heatmap._pending
        heatmap.record((1, 2))
        assert heatmap.row(0) == (0, 3, 0, 0, 0, 0, 0, 0)
        heatmap.record((0, 0))
        heatmap.decay(0.5)
        assert heatmap.row(0) == (0, 1, 0, 0, 0, 0, 0, 0)

    def test_reset_discards_pending(self):
        heatmap = Heatmap(rows=2, values=8)
        heatmap.record((1, 2))
        heatmap.reset()
        assert heatmap.total_accesses == 0
        assert heatmap.popularity((1, 2)) == 0


# ---------------------------------------------------------------------------
# Request-stream memoisation: replay is invisible
# ---------------------------------------------------------------------------


def _stream_fingerprint(workload):
    records = []
    for request in workload.requests():
        entry = (request.op.value, request.lba, request.nblocks)
        if request.is_write:
            entry += (b"".join(b.tobytes() for b in request.payload),)
        records.append(entry)
    return records, np.array(workload.shadow)


class TestStreamCache:
    def test_replay_identical_to_generation(self):
        from repro.workloads import base as workload_base
        from repro.workloads.sysbench import SysBenchWorkload

        workload_base.clear_stream_cache()
        first = SysBenchWorkload(scale=0.25, n_requests=300, seed=11)
        gen_stream, gen_shadow = _stream_fingerprint(first)
        assert workload_base.stream_cache_stats()["misses"] == 1
        replay = SysBenchWorkload(scale=0.25, n_requests=300, seed=11)
        rep_stream, rep_shadow = _stream_fingerprint(replay)
        assert workload_base.stream_cache_stats()["hits"] == 1
        assert rep_stream == gen_stream
        assert np.array_equal(rep_shadow, gen_shadow)
        # Restarting the original instance replays too.
        again_stream, again_shadow = _stream_fingerprint(first)
        assert again_stream == gen_stream
        assert np.array_equal(again_shadow, gen_shadow)

    def test_multi_vm_stream_is_one_entry_and_replays_identically(self):
        from repro.workloads import base as workload_base
        from repro.workloads.multivm import MultiVMWorkload
        from repro.workloads.tpcc import TPCCWorkload

        def make():
            return MultiVMWorkload(TPCCWorkload, n_vms=3, scale=0.05,
                                   n_requests_per_vm=80, seed=4)

        workload_base.clear_stream_cache()
        gen_stream, gen_shadow = _stream_fingerprint(make())
        stats = workload_base.stream_cache_stats()
        assert (stats["misses"], stats["size"]) == (1, 1)
        rep_stream, rep_shadow = _stream_fingerprint(make())
        assert workload_base.stream_cache_stats()["hits"] == 1
        assert rep_stream == gen_stream
        assert np.array_equal(rep_shadow, gen_shadow)

    def test_different_parameters_do_not_collide(self):
        from repro.workloads import base as workload_base
        from repro.workloads.sysbench import SysBenchWorkload

        workload_base.clear_stream_cache()
        a, _ = _stream_fingerprint(
            SysBenchWorkload(scale=0.25, n_requests=200, seed=1))
        b, _ = _stream_fingerprint(
            SysBenchWorkload(scale=0.25, n_requests=200, seed=2))
        assert a != b
        assert workload_base.stream_cache_stats()["misses"] == 2

    def test_partial_consumption_never_seeds_the_cache(self):
        from repro.workloads import base as workload_base
        from repro.workloads.sysbench import SysBenchWorkload

        workload_base.clear_stream_cache()
        workload = SysBenchWorkload(scale=0.25, n_requests=200, seed=3)
        stream = workload.requests()
        for _ in range(10):
            next(stream)
        stream.close()
        assert workload_base.stream_cache_stats()["size"] == 0
        # The next full pass generates (a miss), not a truncated replay.
        full, _ = _stream_fingerprint(workload)
        assert len(full) == 200
        assert workload_base.stream_cache_stats()["size"] == 1

    def test_payloads_are_frozen(self):
        from repro.workloads.sysbench import SysBenchWorkload

        workload = SysBenchWorkload(scale=0.25, n_requests=120, seed=5)
        for request in workload.requests():
            if request.is_write:
                with pytest.raises(ValueError):
                    request.payload[0][0] = 1
                break

    def test_cache_is_bounded(self):
        from repro.workloads import base as workload_base
        from repro.workloads.sysbench import SysBenchWorkload

        workload_base.clear_stream_cache()
        for seed in range(workload_base.STREAM_CACHE_CAPACITY + 2):
            list(SysBenchWorkload(scale=0.05, n_requests=40,
                                  seed=seed).requests())
        stats = workload_base.stream_cache_stats()
        assert stats["size"] <= workload_base.STREAM_CACHE_CAPACITY
        assert stats["bytes"] <= workload_base.STREAM_CACHE_MAX_BYTES
        workload_base.clear_stream_cache()
        assert workload_base.stream_cache_stats()["bytes"] == 0


# ---------------------------------------------------------------------------
# Controller reconstruction memo: correct across delta/reference churn
# ---------------------------------------------------------------------------


class TestReconstructionMemo:
    def test_verified_run_exercises_hits(self):
        from repro.experiments.runner import run_benchmark
        from repro.experiments.systems import make_system
        from repro.workloads import SysBenchWorkload

        workload = SysBenchWorkload(scale=0.25, n_requests=600, seed=7)
        system = make_system("icash", workload)
        result = run_benchmark(workload, system, verify_reads=True)
        assert result.verified_reads > 0
        # The skewed stream re-reads associates, so the memo must both
        # hit and stay invisible to verification.
        assert system.recon_cache_hits > 0
        assert system.delta_reconstructions \
            >= system.recon_cache_hits

    def test_reference_version_bump_invalidates(self):
        from repro.core.controller import ICASHController

        controller = ICASHController(
            np.zeros((16, BLOCK_SIZE), dtype=np.uint8))
        assert controller._acquire_ssd_slot(9) is not None
        controller._ssd_write(9, np.zeros(BLOCK_SIZE, dtype=np.uint8))
        delta = Delta(runs=((0, b"\x07\x07"),))
        first = controller._reconstruct(1, delta, 9)
        assert first[0] == 7
        assert controller._reconstruct(1, delta, 9) is first  # memo hit
        assert controller.recon_cache_hits == 1
        # Same delta object, replaced reference bytes: re-apply.
        controller._ssd_write(9, np.full(BLOCK_SIZE, 5, dtype=np.uint8))
        second = controller._reconstruct(1, delta, 9)
        assert second is not first
        assert second[2] == 5 and second[0] == 7
        # The copy released and the same lba re-acquired — where a
        # per-lba version counter that restarted would see "unchanged".
        controller._release_ssd_slot(9)
        assert controller.ssd_block_content(9) is None
        assert controller._acquire_ssd_slot(9) is not None
        controller._ssd_write(9, np.full(BLOCK_SIZE, 6, dtype=np.uint8))
        third = controller._reconstruct(1, delta, 9)
        assert third is not second
        assert third[2] == 6 and third[0] == 7
        assert controller.recon_cache_hits == 1


# ---------------------------------------------------------------------------
# Persistent worker pool: reuse, growth, teardown
# ---------------------------------------------------------------------------


class TestPersistentPool:
    def test_pool_reused_across_run_specs_calls(self):
        from repro.experiments import parallel
        from repro.experiments.parallel import RunSpec, run_specs

        parallel.shutdown_parallel()
        specs = [RunSpec(workload="sysbench", system=system,
                         n_requests=120, scale=0.05)
                 for system in ("icash", "lru")]
        try:
            run_specs(specs, jobs=2)
            first_pool = parallel._pool
            assert first_pool is not None
            run_specs(specs, jobs=2)
            assert parallel._pool is first_pool
            # Growing the worker count replaces the pool...
            run_specs(specs + specs, jobs=3)
            grown = parallel._pool
            assert grown is not first_pool
            # ... but a smaller wave reuses the grown pool.
            run_specs(specs, jobs=2)
            assert parallel._pool is grown
        finally:
            parallel.shutdown_parallel()
        assert parallel._pool is None

    def test_shutdown_parallel_is_idempotent_and_clean(self):
        from repro.experiments import parallel

        parallel.shutdown_parallel()
        parallel._ensure_pool(2)
        assert parallel._pool is not None
        parallel.shutdown_parallel()
        parallel.shutdown_parallel()
        assert parallel._pool is None and parallel._pool_workers == 0
