"""Property-based tests on cross-module invariants.

These complement the unit suites with randomized adversarial sequences:
the FTL never loses a mapping, the controller never serves wrong bytes,
the segment pool never leaks, the heatmap stays consistent.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ICASHConfig, ICASHController
from repro.core.heatmap import Heatmap
from repro.devices.ssd import FlashSSD, SSDSpec
from repro.sim.request import BLOCK_SIZE


def mapped_lbas(ssd: FlashSSD):
    """The logical blocks the FTL maps to a valid page, ascending."""
    return [lba for lba, ppn in enumerate(ssd._l2p) if ppn >= 0]


# ----------------------------------------------------------------------
# FTL invariants under arbitrary write/trim sequences
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(["write", "trim"]),
                          st.integers(0, 63)),
                max_size=400))
def test_ftl_mapping_matches_live_set(ops):
    """After any op sequence the FTL maps exactly the live lbas, and the
    number of valid pages equals the number of live lbas."""
    ssd = FlashSSD(64, SSDSpec(pages_per_block=8, overprovision=0.2))
    live = set()
    for op, lba in ops:
        if op == "write":
            ssd.write(lba, 1)
            live.add(lba)
        else:
            ssd.trim(lba, 1)
            live.discard(lba)
    # The valid counts are the census of the page owners, which invert
    # l2p, so they sum to the mapped lbas — exactly the live ones.
    ssd.check_invariants()
    assert mapped_lbas(ssd) == sorted(live)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(200, 800))
def test_ftl_survives_write_storms(seed, n_ops):
    """Heavy random overwrites never wedge the device or lose blocks."""
    gen = np.random.default_rng(seed)
    ssd = FlashSSD(64, SSDSpec(pages_per_block=8, overprovision=0.2))
    for _ in range(n_ops):
        ssd.write(int(gen.integers(0, 64)), 1)
    assert len(mapped_lbas(ssd)) <= 64
    assert ssd.write_amplification >= 1.0
    # Every mapped page location is unique: l2p and owner are inverses.
    ssd.check_invariants()


# ----------------------------------------------------------------------
# Controller: arbitrary op sequences never corrupt content
# ----------------------------------------------------------------------

def _tiny_controller(dataset: np.ndarray) -> ICASHController:
    return ICASHController(dataset, ICASHConfig(
        ssd_capacity_blocks=64,
        data_ram_bytes=8 * BLOCK_SIZE,
        delta_ram_bytes=16 * 1024,
        max_virtual_blocks=128,
        log_blocks=256,
        scan_interval=37,
        scan_window=64,
        flush_interval=53,
        flush_dirty_count=16))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31 - 1),
       st.lists(st.tuples(st.booleans(), st.integers(0, 63),
                          st.integers(0, 3)),
                min_size=10, max_size=250))
def test_controller_model_equivalence(seed, ops):
    """The controller behaves exactly like a plain array of blocks, no
    matter how its internal representations shuffle, and its records
    stay consistent after every operation."""
    gen = np.random.default_rng(seed)
    dataset = gen.integers(0, 256, (64, BLOCK_SIZE), dtype=np.uint8)
    # Inject family structure so delta paths actually trigger.
    dataset[1::4] = dataset[0]
    dataset[2::4] = dataset[0]
    controller = _tiny_controller(dataset.copy())
    shadow = dataset.copy()
    for is_write, lba, style in ops:
        if is_write:
            content = shadow[lba].copy()
            if style == 0:      # small anchored change
                content[0:16] = gen.integers(0, 256, 16)
            elif style == 1:    # medium patch
                content[100:600] = gen.integers(0, 256, 500)
            elif style == 2:    # full rewrite (spill material)
                content = gen.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
            else:               # rewrite back to a sibling's content
                content = shadow[(lba + 4) % 64].copy()
            shadow[lba] = content
            controller.write(lba, [content])
        else:
            _, (out,) = controller.read(lba)
            assert np.array_equal(out, shadow[lba])
        controller.check_invariants()
    # Final sweep: every block still reads back correctly.
    for lba in range(64):
        _, (out,) = controller.read(lba)
        assert np.array_equal(out, shadow[lba])
    controller.check_invariants()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31 - 1))
def test_controller_segment_pool_never_leaks(seed):
    """Segments used always equals the sum over cached delta holders."""
    gen = np.random.default_rng(seed)
    dataset = gen.integers(0, 256, (64, BLOCK_SIZE), dtype=np.uint8)
    dataset[1::2] = dataset[0]
    controller = _tiny_controller(dataset.copy())
    controller.ingest()
    for _ in range(150):
        lba = int(gen.integers(0, 64))
        if gen.random() < 0.5:
            content = dataset[lba].copy()
            content[0:64] = gen.integers(0, 256, 64)
            controller.write(lba, [content])
        else:
            controller.read(lba)
    expected = sum(
        controller.segments.segments_for(vb.delta_segments_bytes)
        for vb in controller.cache.lru_order() if vb.delta_segments_bytes)
    assert controller.segments.used_segments == expected


# ----------------------------------------------------------------------
# Heatmap
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 255), min_size=8, max_size=8),
                max_size=60))
def test_heatmap_popularity_decomposes(sig_lists):
    """popularity(sigs) always equals the sum of per-row counters."""
    heatmap = Heatmap()
    for sigs in sig_lists:
        heatmap.record_batch([sigs])
    for sigs in sig_lists:
        manual = sum(int(heatmap._counts[i, value])
                     for i, value in enumerate(sigs))
        assert heatmap.popularity(sigs) == manual


# ----------------------------------------------------------------------
# Cache budget invariants under arbitrary attach/drop sequences
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["data", "delta", "drop_data",
                                           "drop_delta", "remove"]),
                          st.integers(0, 15)),
                max_size=120))
def test_cache_budgets_consistent(ops):
    from repro.core.cache import ICashCache
    from repro.core.virtual_block import VirtualBlock
    from repro.delta.encoder import Delta
    from repro.delta.segments import SegmentPool

    cache = ICashCache(max_virtual_blocks=32,
                       data_ram_bytes=16 * BLOCK_SIZE,
                       segment_pool=SegmentPool(1 << 16))
    block = np.zeros(BLOCK_SIZE, dtype=np.uint8)
    for op, lba in ops:
        vb = cache.get(lba, touch=False)
        if op == "remove":
            if vb is not None:
                cache.remove(lba)
            continue
        if vb is None:
            vb = VirtualBlock(lba=lba)
            cache.insert(vb)
        if op == "data" and cache.data_blocks_free > 0 or \
                (op == "data" and vb.has_data):
            cache.attach_data(vb, block)
        elif op == "delta":
            cache.attach_delta(vb, Delta(runs=((0, b"x" * 40),)))
        elif op == "drop_data":
            cache.drop_data(vb)
        elif op == "drop_delta":
            cache.drop_delta(vb)
    data_holders = sum(1 for vb in cache.lru_order() if vb.has_data)
    delta_bytes = sum(vb.delta_segments_bytes
                      for vb in cache.lru_order())
    assert cache.data_blocks_used == data_holders
    assert cache.segments.used_segments == sum(
        cache.segments.segments_for(vb.delta_segments_bytes)
        for vb in cache.lru_order() if vb.delta_segments_bytes)
    assert delta_bytes >= 0
