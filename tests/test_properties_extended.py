"""Second wave of property-based tests: multi-block requests and
recovery round-trips."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ICASHConfig, ICASHController
from repro.core.recovery import rebuild_controller, recover
from repro.sim.request import BLOCK_SIZE


def _family_dataset(gen: np.random.Generator,
                    n_blocks: int = 64) -> np.ndarray:
    dataset = gen.integers(0, 256, (n_blocks, BLOCK_SIZE), dtype=np.uint8)
    dataset[1::4] = dataset[0]
    dataset[2::4] = dataset[0]
    return dataset


def _tiny_config(**overrides) -> ICASHConfig:
    defaults = dict(
        ssd_capacity_blocks=32,
        data_ram_bytes=8 * BLOCK_SIZE,
        delta_ram_bytes=32 * 1024,
        max_virtual_blocks=192,
        log_blocks=256,
        scan_interval=41,
        scan_window=64,
        flush_interval=67,
        flush_dirty_count=16)
    defaults.update(overrides)
    return ICASHConfig(**defaults)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31 - 1),
       st.lists(st.tuples(st.booleans(), st.integers(0, 60),
                          st.integers(1, 4)),
                min_size=5, max_size=120))
def test_multiblock_requests_match_shadow(seed, ops):
    """Spanning reads/writes behave exactly like per-block ones."""
    gen = np.random.default_rng(seed)
    dataset = _family_dataset(gen)
    controller = ICASHController(dataset.copy(), _tiny_config())
    shadow = dataset.copy()
    for is_write, lba, span in ops:
        span = min(span, 64 - lba)
        if span < 1:
            continue
        if is_write:
            payload = []
            for block in range(lba, lba + span):
                content = shadow[block].copy()
                start = int(gen.integers(0, BLOCK_SIZE - 64))
                content[start:start + 64] = gen.integers(0, 256, 64)
                shadow[block] = content
                payload.append(content)
            controller.write(lba, payload)
        else:
            _, contents = controller.read(lba, span)
            for offset, content in enumerate(contents):
                assert np.array_equal(content, shadow[lba + offset])
        controller.check_invariants()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31 - 1), st.integers(10, 80))
def test_recovery_roundtrip_after_flush(seed, n_writes):
    """flush -> crash -> recover is byte-exact for arbitrary histories."""
    gen = np.random.default_rng(seed)
    dataset = _family_dataset(gen)
    controller = ICASHController(dataset.copy(), _tiny_config())
    controller.ingest()
    shadow = dataset.copy()
    for _ in range(n_writes):
        lba = int(gen.integers(0, 64))
        content = shadow[lba].copy()
        style = gen.random()
        if style < 0.6:   # small anchored change
            content[0:32] = gen.integers(0, 256, 32)
        elif style < 0.9:  # spill-sized rewrite
            content = gen.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        else:             # revert to a sibling (identity-ish)
            content = shadow[(lba + 4) % 64].copy()
        shadow[lba] = content
        controller.write(lba, [content])
    controller.flush()
    image = recover(controller)
    for lba in range(64):
        assert np.array_equal(image.read(lba), shadow[lba]), lba


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**31 - 1))
def test_rebuilt_controller_equals_image(seed):
    """A restarted element serves what the recovery image promises."""
    gen = np.random.default_rng(seed)
    dataset = _family_dataset(gen)
    controller = ICASHController(dataset.copy(), _tiny_config())
    controller.ingest()
    for _ in range(40):
        lba = int(gen.integers(0, 64))
        content = dataset[lba].copy()
        content[0:40] = gen.integers(0, 256, 40)
        controller.write(lba, [content])
    controller.flush()
    image = recover(controller)
    fresh = rebuild_controller(controller)
    for lba in range(0, 64, 3):
        _, (out,) = fresh.read(lba)
        assert np.array_equal(out, image.read(lba))
