"""Hot-path optimisations and the parallel experiment fan-out.

Two families of guarantees live here:

* **golden equivalence** — every memoised/incremental/zero-copy fast
  path must produce byte-identical results to the direct
  implementation it replaced (signature kernels vs. the element-wise
  references, incremental similarity index vs. per-scan rebuild, view-based reads
  vs. copies);
* **parallel determinism** — fanning runs out across worker processes
  must be invisible in the results: byte-identical figures, sweeps and
  BENCH documents at any ``--jobs`` count, with only the
  machine-dependent ``host_wall_s`` allowed to differ.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ICashCache
from repro.core.heatmap import Heatmap
from repro.core.signatures import (SignatureScheme, _hash_signatures,
                                   _sampled_signatures, block_signatures)
from repro.core.similarity import SimilarityScanner
from repro.core.virtual_block import BlockKind, VirtualBlock
from repro.delta.encoder import apply_delta, encode_delta
from repro.delta.segments import SegmentPool
from repro.sim.request import BLOCK_SIZE

from reference.similarity import direct_scan, outcome


# ---------------------------------------------------------------------------
# Signature kernels: golden equivalence with the direct computation
# ---------------------------------------------------------------------------


class TestSignatureCache:
    def test_sampled_matches_direct_implementation(self, rng):
        for _ in range(20):
            block = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
            assert block_signatures(block) \
                == tuple(_sampled_signatures(block))

    def test_hash_matches_direct_implementation(self, rng):
        for _ in range(10):
            block = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
            assert block_signatures(block, SignatureScheme.HASH) \
                == tuple(_hash_signatures(block))

    def test_mutated_block_gets_fresh_signatures(self, rng):
        """Signatures follow the content: a changed sampled byte
        changes them."""
        block = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        before = block_signatures(block)
        block[0] = (int(block[0]) + 1) % 256  # offset 0 is sampled
        after = block_signatures(block)
        assert after != before
        assert after == tuple(_sampled_signatures(block))

    def test_readonly_view_input_accepted(self, rng):
        """Controller read paths hand out read-only views; signatures
        must compute on them without writeability."""
        block = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        view = block.view()
        view.flags.writeable = False
        assert block_signatures(view) == tuple(_sampled_signatures(block))


# ---------------------------------------------------------------------------
# Incremental similarity index: golden equivalence with the per-scan
# rebuild
# ---------------------------------------------------------------------------


def _make_cache():
    return ICashCache(max_virtual_blocks=1024,
                      data_ram_bytes=512 * BLOCK_SIZE,
                      segment_pool=SegmentPool(1 << 20))


def _make_scanner(heatmap):
    return SimilarityScanner(heatmap, min_signature_match=4,
                             delta_accept_bytes=2048,
                             scan_compare_s=2e-6, compress_s=15e-6)


_SCAN_ARGS = dict(window=100, max_new_references=50,
                  content_fn=lambda vb: vb.data)


def _populate(cache, heatmap, blocks):
    for lba, content in blocks:
        vb = VirtualBlock(lba=lba, kind=BlockKind.INDEPENDENT)
        vb.signatures = block_signatures(content)
        cache.insert(vb)
        cache.attach_data(vb, content)
        heatmap.record(vb.signatures)


def _mixed_population(rng, n_families=4, family_size=6, n_loners=8):
    """Families of similar blocks plus dissimilar loners — exercises
    both association and mid-scan reference promotion."""
    blocks = []
    lba = 0
    for family in range(n_families):
        base = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        for member in range(family_size):
            content = base.copy()
            content[member * 16:member * 16 + 24] = family
            blocks.append((lba, content))
            lba += 1
    for _ in range(n_loners):
        blocks.append(
            (lba, rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)))
        lba += 1
    return blocks


def _scan_outcomes(blocks):
    """(production, direct reference) outcomes of one scan over
    ``blocks``; the reference mutates nothing, so both see one cache."""
    cache = _make_cache()
    heatmap = Heatmap()
    _populate(cache, heatmap, blocks)
    scanner = _make_scanner(heatmap)
    direct = outcome(direct_scan(scanner, cache, **_SCAN_ARGS))
    return outcome(scanner.scan(cache, **_SCAN_ARGS)), direct


class TestIncrementalIndexEquivalence:
    def test_scan_identical_to_direct_index(self, rng):
        production, direct = _scan_outcomes(_mixed_population(rng))
        assert production == direct

    def test_equivalence_over_many_seeds(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            blocks = _mixed_population(
                rng, n_families=2 + seed % 3, family_size=3 + seed % 4,
                n_loners=seed * 2)
            production, direct = _scan_outcomes(blocks)
            assert production == direct, \
                f"index paths diverged for seed {seed}"

    def test_repeat_scans_identical(self, rng):
        """The persistent index keeps the blocks each scan promoted
        (nobody applies the promotions here, so they go stale); the
        per-scan sync and the window filter must hide them, so every
        later scan still matches the direct path."""
        cache = _make_cache()
        heatmap = Heatmap()
        _populate(cache, heatmap, _mixed_population(rng))
        scanner = _make_scanner(heatmap)
        for _ in range(3):
            direct = outcome(direct_scan(scanner, cache, **_SCAN_ARGS))
            assert outcome(scanner.scan(cache, **_SCAN_ARGS)) == direct

    def test_retired_references_leave_index(self, rng):
        blocks = _mixed_population(rng, n_families=1, family_size=4,
                                   n_loners=0)
        cache = _make_cache()
        heatmap = Heatmap()
        _populate(cache, heatmap, blocks)
        scanner = _make_scanner(heatmap)
        scanner.scan(cache, **_SCAN_ARGS)
        assert len(scanner.signature_index) > 0
        for lba, _ in blocks:
            scanner.note_retired(lba)
        assert len(scanner.signature_index) == 0


# ---------------------------------------------------------------------------
# Zero-copy delta path: round-trip under views, no aliasing corruption
# ---------------------------------------------------------------------------


def _readonly(arr):
    view = arr.view()
    view.flags.writeable = False
    return view


class TestZeroCopyDeltaProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_roundtrip_under_views(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n_edits = data.draw(st.integers(0, 32))
        rng = np.random.default_rng(seed)
        reference = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = reference.copy()
        for _ in range(n_edits):
            start = int(rng.integers(0, BLOCK_SIZE))
            length = int(rng.integers(1, 64))
            target[start:start + length] = rng.integers(0, 256)
        # Encode/apply through read-only views, as the controller's
        # zero-copy read path would hand them out.
        delta = encode_delta(_readonly(target), _readonly(reference))
        restored = apply_delta(delta, _readonly(reference))
        assert np.array_equal(restored, target)

    def test_no_aliasing_after_reference_mutation(self, rng):
        """apply_delta's output must own its bytes: mutating the
        reference array afterwards cannot corrupt an earlier result."""
        reference = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = reference.copy()
        target[100:130] = 7
        delta = encode_delta(target, reference)
        restored = apply_delta(delta, _readonly(reference))
        snapshot = restored.copy()
        reference[:] = 0  # clobber the source the view pointed at
        assert np.array_equal(restored, snapshot)

    def test_encode_does_not_mutate_inputs(self, rng):
        reference = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        ref_copy, tgt_copy = reference.copy(), target.copy()
        encode_delta(target, reference)
        assert np.array_equal(reference, ref_copy)
        assert np.array_equal(target, tgt_copy)


# ---------------------------------------------------------------------------
# Controller read views: stable content, fresh copy semantics preserved
# ---------------------------------------------------------------------------


class TestControllerReadViews:
    def test_reads_match_shadow_under_views(self):
        from repro.experiments.runner import run_benchmark
        from repro.experiments.systems import make_system
        from repro.workloads import SysBenchWorkload

        workload = SysBenchWorkload(scale=0.25, n_requests=600, seed=7)
        system = make_system("icash", workload)
        result = run_benchmark(workload, system, verify_reads=True)
        assert result.verified_reads > 0


# ---------------------------------------------------------------------------
# RunResult payloads: pickle round-trip is bit-identical
# ---------------------------------------------------------------------------


class TestRunResultPayload:
    @pytest.mark.parametrize("engine", ["legacy", "event"])
    def test_case_record_identical_after_roundtrip(self, engine):
        from repro.experiments import bench
        from repro.experiments.parallel import RunSpec, run_spec
        from repro.experiments.runner import RunResult

        case = RunSpec(workload="sysbench", engine=engine,
                       n_requests=300, scale=0.05, profile=True)
        original = run_spec(case)
        payload = pickle.loads(pickle.dumps(original.to_payload()))
        rebuilt = RunResult.from_payload(payload)
        assert json.dumps(bench.case_record(case, original),
                          sort_keys=True) \
            == json.dumps(bench.case_record(case, rebuilt),
                          sort_keys=True)

    def test_payload_is_plain_data(self):
        from repro.experiments import bench
        from repro.experiments.parallel import run_spec

        payload = run_spec(bench.QUICK_SUITE[0]).to_payload()
        json.dumps(payload)  # no live simulator objects inside


# ---------------------------------------------------------------------------
# Parallel fan-out: determinism at any job count, serial fallback
# ---------------------------------------------------------------------------


def _strip_host_wall(document):
    stripped = json.loads(json.dumps(document))
    for case in stripped["cases"]:
        assert case["host_wall_s"] is None \
            or float(case["host_wall_s"]) >= 0.0
        case["host_wall_s"] = None
    return json.dumps(stripped, indent=2, sort_keys=True)


class TestParallelDeterminism:
    def test_run_specs_order_and_results_independent_of_jobs(self):
        from repro.experiments.parallel import RunSpec, run_specs

        specs = [RunSpec(workload="sysbench", system=system,
                         n_requests=300, scale=0.05)
                 for system in ("icash", "lru", "fusion-io")]
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert [o.parallel for o in serial] == [False] * 3
        assert all(o.parallel for o in parallel)
        for left, right in zip(serial, parallel):
            assert json.dumps(left.result.to_payload(), sort_keys=True) \
                == json.dumps(right.result.to_payload(), sort_keys=True)

    def test_quick_suite_byte_identical_across_job_counts(self):
        from repro.experiments import bench

        documents = {jobs: bench.run_suite(quick=True, jobs=jobs)
                     for jobs in (1, 2, 4)}
        baseline = _strip_host_wall(documents[1])
        assert _strip_host_wall(documents[2]) == baseline
        assert _strip_host_wall(documents[4]) == baseline
        for document in documents.values():
            for case in document["cases"]:
                assert case["host_wall_s"] > 0.0

    def test_spec_errors_propagate_in_both_modes(self):
        from repro.experiments.parallel import RunSpec, run_specs

        bad = [RunSpec(workload="no-such-workload", n_requests=10)]
        with pytest.raises(KeyError):
            run_specs(bad, jobs=1)
        with pytest.raises(KeyError):
            run_specs(bad, jobs=2)

    def test_sweep_points_identical_with_jobs(self):
        from repro.experiments.parallel import RunSpec
        from repro.experiments.sweeps import sweep_config

        base = RunSpec(workload="sysbench", n_requests=400,
                       warmup_fraction=0.4)
        serial = sweep_config(base, "scan_interval", [200, 800])
        fanned = sweep_config(base, "scan_interval", [200, 800], jobs=2)
        for left, right in zip(serial, fanned):
            assert left.value == right.value
            assert left.result.transactions_per_s \
                == right.result.transactions_per_s
            assert left.result.read_mean_us == right.result.read_mean_us


class TestFigureGridCache:
    def test_cache_key_covers_engine_and_warmup(self):
        from repro.experiments.figures import _grid_key

        key = _grid_key("sysbench", 500, 2011)
        assert "legacy" in key
        assert any(isinstance(part, float) for part in key)
        assert _grid_key("sysbench", 500, 2012) != key
        assert _grid_key("sysbench", 501, 2011) != key

    def test_prewarm_installs_exact_cells(self, monkeypatch):
        from repro.experiments import figures

        figures.clear_cache()
        ran = figures.prewarm(["figure6a"], n_requests=300, jobs=1)
        assert ran == 5  # one cell per architecture

        # The figure function must now be served from cache: a cell
        # re-run would mean the prewarm keys missed.
        def _fail(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("cell re-run despite prewarm")

        monkeypatch.setattr(figures, "run_spec", _fail)
        result = figures.ALL_FIGURES["figure6a"](n_requests=300)
        assert set(result.measured) == set(result.paper)
        assert figures.prewarm(["figure6a"], n_requests=300) == 0
        figures.clear_cache()

    def test_different_requests_do_not_collide(self, monkeypatch):
        from repro.experiments import figures

        figures.clear_cache()
        figures.prewarm(["figure6a"], n_requests=300)

        def _fail(*args, **kwargs):
            raise AssertionError("cache collision across n_requests")

        monkeypatch.setattr(figures, "run_spec", _fail)
        with pytest.raises(AssertionError):
            figures.ALL_FIGURES["figure6a"](n_requests=301)
        figures.clear_cache()
