"""Write content is what the frozen per-run loop draws, bit for bit.

``tests/reference/content.py`` keeps ``ContentModel.mutate`` and the
per-block anchors as scalar ``Generator`` calls.  The model must return
the loop's bytes and leave the caller's generator exactly where the
loop leaves it — PCG64's buffered 32-bit half (``has_uint32`` and
``uinteger``) included — from any state, for any fraction, with and
without an LBA.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import content as reference_content
from reference import stream_digest as reference_streams
from repro.sim.request import BLOCK_SIZE
from repro.workloads.content import ContentModel


def _model(content_seed: int = 5) -> ContentModel:
    return ContentModel(n_blocks=256, n_families=8, mutation_fraction=0.1,
                        duplicate_fraction=0.1, content_seed=content_seed)


class TestMutateIsTheLoop:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cached=st.booleans(),
           fraction=st.floats(0.005, 0.99),
           lba=st.one_of(st.none(), st.integers(0, 255)),
           content_seed=st.integers(0, 2**16), writes=st.integers(1, 3))
    def test_bytes_and_generator_state(self, seed, cached, fraction, lba,
                                       content_seed, writes):
        model = _model(content_seed)
        current = np.random.default_rng(seed + 1).integers(
            0, 256, BLOCK_SIZE, dtype=np.uint8)
        ours, loops = (np.random.default_rng(seed) for _ in range(2))
        if cached:
            # One bounded draw leaves PCG64's high 32-bit half buffered.
            for rng in (ours, loops):
                rng.integers(0, 7)
        expected = got = current
        for _ in range(writes):
            expected = reference_content.mutate_loop(
                model, expected, loops, fraction=fraction, lba=lba)
            got = model.mutate(got, ours, fraction=fraction, lba=lba)
            assert np.array_equal(got, expected)
            assert ours.bit_generator.state == loops.bit_generator.state

    def test_default_fraction_and_fresh_array(self):
        model = _model()
        current = np.zeros(BLOCK_SIZE, dtype=np.uint8)
        ours, loops = (np.random.default_rng(3) for _ in range(2))
        got = model.mutate(current, ours, lba=9)
        assert got is not current and not current.any()
        assert np.array_equal(
            got, reference_content.mutate_loop(model, current, loops, lba=9))
        assert ours.bit_generator.state == loops.bit_generator.state

    def test_zero_fraction_draws_nothing(self):
        model = _model()
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        current = np.ones(BLOCK_SIZE, dtype=np.uint8)
        assert np.array_equal(model.mutate(current, rng, fraction=0.0,
                                           lba=2), current)
        assert rng.bit_generator.state == before


class TestAnchorsAreTheLoop:
    @settings(max_examples=100, deadline=None)
    @given(content_seed=st.integers(0, 2**32 - 1),
           lba=st.integers(0, 2**31))
    def test_offsets_and_dtype(self, content_seed, lba):
        model = _model(content_seed)
        expected = reference_content.anchors_loop(model, lba)
        got = model._anchors_of(lba)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class _ZeroFirstWord(np.random.PCG64):
    """PCG64 whose bulk draws start with a zero word.  The generator's
    own scalar draws still read the real stream."""

    def random_raw(self, size=None, output=True):
        raw = super().random_raw(size, output)
        raw[:1] = 0
        return raw


def _core(state):
    return {key: value for key, value in state.items()
            if key != "bit_generator"}


class TestTheDecodeIsWhatRuns:
    @pytest.fixture
    def loop_calls(self, monkeypatch):
        calls = []
        draw_runs = ContentModel._draw_runs

        def spy(self, *args):
            calls.append(args)
            return draw_runs(self, *args)

        monkeypatch.setattr(ContentModel, "_draw_runs", spy)
        return calls

    def test_every_pinned_stream_decodes(self, loop_calls):
        """A decode that fell back to the loop would keep every digest
        and lose the speed: no pinned stream reaches the loop."""
        for name in reference_streams.CASES:
            reference_streams.pin(name)
        assert loop_calls == []

    def test_a_rejected_pick_restores_the_state_and_runs_the_loop(
            self, loop_calls):
        """A zero 32-bit word scaled to a width that is not a power of
        two lands below Lemire's threshold: the loop would draw again,
        so the decode hands the untouched generator to the loop."""
        model = _model()
        current = np.arange(BLOCK_SIZE, dtype=np.uint16).astype(np.uint8)
        ours = np.random.Generator(_ZeroFirstWord(11))
        loops = np.random.default_rng(11)
        expected = reference_content.mutate_loop(model, current, loops,
                                                 fraction=0.1)
        got = model.mutate(current, ours, fraction=0.1)
        assert len(loop_calls) == 1
        assert np.array_equal(got, expected)
        assert _core(ours.bit_generator.state) == _core(
            loops.bit_generator.state)
