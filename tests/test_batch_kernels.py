"""Batch kernels, memoised streams, and the shared-memory fan-out.

Three families of guarantees:

* **golden equivalence** — every vectorised batch kernel in
  :mod:`repro.core.batch` (and the batched heatmap entry points)
  must be bit-identical to its scalar twin on random shapes,
  non-contiguous views, empty batches and single blocks;
* **memoisation transparency** — the request-stream cache and the
  controller's delta-reconstruction memo must be invisible: identical
  requests, shadow state and read contents whether or not a cache was
  hit;
* **arena lifetime** — shared-memory segments are owned by the
  publishing process: workers (even SIGKILLed ones) can never unlink
  them, and :func:`shutdown_parallel` always leaves ``/dev/shm`` clean.
"""

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (apply_delta_batch, block_signatures_batch,
                              block_signatures_many, encode_delta_batch,
                              signature_tuples)
from repro.core.heatmap import Heatmap
from repro.core.signatures import (SignatureScheme, block_signatures,
                                   clear_signature_cache,
                                   signature_cache_stats)
from repro.delta.encoder import Delta, apply_delta, encode_delta
from repro.sim.request import BLOCK_SIZE


def _random_batch(rng, n):
    return rng.integers(0, 256, size=(n, BLOCK_SIZE), dtype=np.uint8)


def _edited_pairs(rng, n, max_edits=24):
    """(targets, references) with clustered random edits per row."""
    references = _random_batch(rng, n)
    targets = references.copy()
    for row in range(n):
        for _ in range(int(rng.integers(0, max_edits + 1))):
            start = int(rng.integers(0, BLOCK_SIZE))
            length = int(rng.integers(1, 64))
            targets[row, start:start + length] = rng.integers(0, 256)
    return targets, references


# ---------------------------------------------------------------------------
# block_signatures_batch vs the scalar implementation
# ---------------------------------------------------------------------------


class TestSignatureBatchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 24),
           scheme=st.sampled_from(list(SignatureScheme)))
    def test_matches_scalar_on_random_batches(self, seed, n, scheme):
        clear_signature_cache()
        rng = np.random.default_rng(seed)
        batch = _random_batch(rng, n)
        matrix = block_signatures_batch(batch, scheme)
        assert matrix.shape == (n, 8) and matrix.dtype == np.uint8
        assert signature_tuples(matrix) \
            == [block_signatures(batch[i], scheme) for i in range(n)]

    def test_non_contiguous_view_input(self, rng):
        clear_signature_cache()
        doubled = _random_batch(rng, 12)
        view = doubled[::2]  # stride-2 rows: not C-contiguous
        assert not view.flags.c_contiguous
        assert signature_tuples(block_signatures_batch(view)) \
            == [block_signatures(row) for row in view]

    def test_single_block_and_empty_batch(self, rng):
        clear_signature_cache()
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


class TestBlockSignaturesMany:
    def test_matches_scalar_list(self, rng):
        clear_signature_cache()
        blocks = list(_random_batch(rng, 10))
        blocks.append(blocks[0].copy())  # in-batch duplicate
        assert block_signatures_many(blocks) \
            == [block_signatures(b) for b in blocks]

    def test_mixed_hits_and_misses(self, rng):
        clear_signature_cache()
        blocks = list(_random_batch(rng, 6))
        for block in blocks[:3]:
            block_signatures(block)  # pre-warm half the batch
        before = signature_cache_stats()
        result = block_signatures_many(blocks)
        after = signature_cache_stats()
        assert result == [block_signatures(b) for b in blocks]
        assert after["hits"] >= before["hits"] + 3
        assert after["misses"] >= before["misses"] + 3

    def test_cache_size_bytes_and_evictions_accounted(self, rng):
        from repro.core.signatures import SIGNATURE_CACHE_CAPACITY

        clear_signature_cache()
        block_signatures_many(list(_random_batch(rng, 8)))
        stats = signature_cache_stats()
        assert stats["size"] == 8
        # Every entry pins its key (scheme tag + 4 KB of content), the
        # signature tuple, and LRU bookkeeping; the accounting must grow
        # with the population and reset with it.
        assert stats["size_bytes"] > 8 * BLOCK_SIZE
        assert stats["evictions"] == 0
        per_entry = stats["size_bytes"] // 8
        for chunk in range(0, SIGNATURE_CACHE_CAPACITY + 64, 64):
            block_signatures_many(list(_random_batch(rng, 64)))
        stats = signature_cache_stats()
        assert stats["evictions"] > 0
        assert stats["size"] <= SIGNATURE_CACHE_CAPACITY
        assert stats["size_bytes"] \
            <= (SIGNATURE_CACHE_CAPACITY + 1) * per_entry
        clear_signature_cache()
        assert signature_cache_stats()["size_bytes"] == 0


# ---------------------------------------------------------------------------
# encode/apply batch vs the scalar codec
# ---------------------------------------------------------------------------


class TestDeltaBatchEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 16))
    def test_encode_matches_scalar(self, seed, n):
        rng = np.random.default_rng(seed)
        targets, references = _edited_pairs(rng, n)
        batch = encode_delta_batch(targets, references)
        scalar = [encode_delta(targets[i], references[i])
                  for i in range(n)]
        assert len(batch) == n
        for got, want in zip(batch, scalar):
            assert got.runs == want.runs
            assert got.size_bytes == want.size_bytes
            assert got.serialize() == want.serialize()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 16))
    def test_apply_matches_scalar(self, seed, n):
        rng = np.random.default_rng(seed)
        targets, references = _edited_pairs(rng, n)
        deltas = [encode_delta(targets[i], references[i])
                  for i in range(n)]
        batch = apply_delta_batch(deltas, references)
        assert batch.shape == (n, BLOCK_SIZE)
        assert np.array_equal(batch, targets)
        for i in range(n):
            assert np.array_equal(batch[i],
                                  apply_delta(deltas[i], references[i]))

    def test_identity_and_full_rewrite_rows(self, rng):
        references = _random_batch(rng, 3)
        targets = references.copy()
        targets[1] += 1  # uint8 wrap: every byte differs
        deltas = encode_delta_batch(targets, references)
        assert deltas[0].is_identity and deltas[2].is_identity
        assert deltas[1].runs == encode_delta(targets[1],
                                              references[1]).runs
        assert np.array_equal(apply_delta_batch(deltas, references),
                              targets)

    def test_non_contiguous_views(self, rng):
        doubled_t, doubled_r = _edited_pairs(rng, 8)
        t_view, r_view = doubled_t[::2], doubled_r[::2]
        batch = encode_delta_batch(t_view, r_view)
        for i in range(t_view.shape[0]):
            assert batch[i].runs == encode_delta(t_view[i],
                                                 r_view[i]).runs

    def test_empty_batch(self):
        empty = np.empty((0, BLOCK_SIZE), dtype=np.uint8)
        assert encode_delta_batch(empty, empty) == []
        assert apply_delta_batch([], empty).shape == (0, BLOCK_SIZE)

    def test_apply_rejects_out_of_block_runs(self, rng):
        references = _random_batch(rng, 1)
        bad = Delta(runs=((BLOCK_SIZE - 2, b"toolong"),))
        with pytest.raises(ValueError):
            apply_delta_batch([bad], references)

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ValueError):
            encode_delta_batch(_random_batch(rng, 2),
                               _random_batch(rng, 3))
        with pytest.raises(ValueError):
            apply_delta_batch([Delta(runs=())], _random_batch(rng, 2))


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
# Batched ingest sweep: speculative encode equals the scalar reference
# ---------------------------------------------------------------------------


class TestIngestSweepEquivalence:
    @staticmethod
    def _ingested(workload_cls, batch, chunk):
        from repro.core.controller import ICASHController

        workload = workload_cls(scale=0.02, n_requests=1, seed=17)
        controller = ICASHController(workload.build_dataset())
        controller.use_batch_ingest = batch
        controller.INGEST_CHUNK = chunk
        setup_s = controller.ingest()
        return controller, setup_s

    @pytest.mark.parametrize("chunk", [4, 256])
    @pytest.mark.parametrize("workload_name", ["sysbench", "specsfs"])
    def test_batched_sweep_matches_scalar(self, workload_name, chunk):
        from repro.workloads.specsfs import SpecSFSWorkload
        from repro.workloads.sysbench import SysBenchWorkload

        cls = {"sysbench": SysBenchWorkload,
               "specsfs": SpecSFSWorkload}[workload_name]
        scalar, scalar_s = self._ingested(cls, batch=False, chunk=chunk)
        batched, batched_s = self._ingested(cls, batch=True, chunk=chunk)
        # chunk=4 forces intra-chunk promotions into nearly every window,
        # exercising the speculation-miss fallback; chunk=256 is the
        # production shape.
        assert scalar_s == batched_s
        assert scalar.cpu_time == batched.cpu_time
        assert scalar.stats.counters() == batched.stats.counters()
        assert set(scalar._ssd_data) == set(batched._ssd_data)
        for lba in scalar._ssd_data:
            assert np.array_equal(scalar._ssd_data[lba],
                                  batched._ssd_data[lba])
        assert ({lba: (e.ref_lba, e.log_slot)
                 for lba, e in scalar._delta_map.items()}
                == {lba: (e.ref_lba, e.log_slot)
                    for lba, e in batched._delta_map.items()})


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
    return records, workload.shadow.copy()


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
        assert system.stats.count("recon_cache_hits") > 0
        assert system.stats.count("delta_reconstructions") \
            >= system.stats.count("recon_cache_hits")

    def test_reference_version_bump_invalidates(self):
        from repro.core.controller import ICASHController

        controller = ICASHController.__new__(ICASHController)
        from collections import OrderedDict
        controller._recon_cache = OrderedDict()
        controller._ssd_versions = {}

        class _Stats:
            def bump(self, *a, **k):
                pass

        controller.stats = _Stats()
        reference = np.zeros(BLOCK_SIZE, dtype=np.uint8)
        controller._ssd_data = {9: reference}
        delta = Delta(runs=((0, b"\x07\x07"),))
        first = controller._reconstruct(1, delta, 9)
        assert first[0] == 7
        assert controller._reconstruct(1, delta, 9) is first  # memo hit
        # Same delta object, changed reference bytes: the version bump
        # must force a re-apply.
        controller._ssd_data[9] = np.full(BLOCK_SIZE, 5, dtype=np.uint8)
        controller._note_ssd_content_changed(9)
        second = controller._reconstruct(1, delta, 9)
        assert second is not first
        assert second[2] == 5 and second[0] == 7


# ---------------------------------------------------------------------------
# Shared-memory arena: lifetime, cleanup, and the jobs-N fan-out
# ---------------------------------------------------------------------------


def _attach_and_die(name):  # pragma: no cover - runs in a child process
    from multiprocessing import shared_memory, resource_tracker

    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    os.kill(os.getpid(), signal.SIGKILL)


class TestDatasetArena:
    def test_publish_attach_release_roundtrip(self, rng):
        from multiprocessing import shared_memory

        from repro.experiments.parallel import DatasetArena

        data = rng.integers(0, 256, size=(8, BLOCK_SIZE), dtype=np.uint8)
        with DatasetArena() as arena:
            name, shape = arena.publish(("k", 1), data)
            assert arena.publish(("k", 1), data) == (name, shape)
            assert len(arena) == 1
            shm = shared_memory.SharedMemory(name=name)
            seen = np.ndarray(shape, dtype=np.uint8,
                              buffer=shm.buf).copy()
            shm.close()
            assert np.array_equal(seen, data)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_killed_child_cannot_unlink_segments(self, rng):
        from multiprocessing import shared_memory

        from repro.experiments.parallel import DatasetArena

        data = rng.integers(0, 256, size=(4, BLOCK_SIZE), dtype=np.uint8)
        arena = DatasetArena()
        try:
            name, _shape = arena.publish("key", data)
            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(target=_attach_and_die, args=(name,))
            child.start()
            child.join(timeout=30)
            assert child.exitcode == -signal.SIGKILL
            # The segment must have survived the child's death...
            shm = shared_memory.SharedMemory(name=name)
            shm.close()
        finally:
            arena.release()
        # ... and the owner's release must still unlink it cleanly.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        arena.release()  # idempotent

    def test_shutdown_parallel_is_idempotent_and_clean(self):
        from repro.experiments import parallel

        parallel.shutdown_parallel()
        arena = parallel._get_arena()
        arena.publish("key", np.zeros((1, BLOCK_SIZE), dtype=np.uint8))
        names = [ref[0] for ref in arena.refs().values()]
        parallel.shutdown_parallel()
        parallel.shutdown_parallel()
        for name in names:
            assert not os.path.exists(os.path.join("/dev/shm", name))


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

    def test_arena_path_byte_identical_to_local_rebuild(self):
        from repro.experiments import parallel
        from repro.experiments.parallel import RunSpec, run_specs
        from repro.workloads import content as content_model

        parallel.shutdown_parallel()
        content_model.clear_dataset_cache()
        specs = [RunSpec(workload="sysbench", system=system,
                         n_requests=150, scale=0.05)
                 for system in ("icash", "lru")]
        try:
            shared = run_specs(specs, jobs=2, use_arena=True)
            assert len(parallel._get_arena()) > 0
            plain = run_specs(specs, jobs=2, use_arena=False)
        finally:
            parallel.shutdown_parallel()
        for left, right in zip(shared, plain):
            assert json.dumps(left.result.to_payload(), sort_keys=True) \
                == json.dumps(right.result.to_payload(), sort_keys=True)
