"""Unit and property tests for the byte-range delta codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.encoder import (DELTA_HEADER_BYTES, MERGE_GAP,
                                 RUN_HEADER_BYTES, Delta, apply_delta,
                                 encode_delta)
from repro.sim.request import BLOCK_SIZE

from conftest import make_block
from reference import delta_codec as reference_codec
from reference import pins

#: Warnings are errors here: the codec writes python ints into its `<u2`
#: wire header, and NumPy deprecates, then wraps, an out-of-range one.
pytestmark = pytest.mark.filterwarnings("error")


def changed_bytes(delta: Delta) -> int:
    """The payload bytes a delta carries: its wire size less headers."""
    return (delta.size_bytes - DELTA_HEADER_BYTES
            - delta.run_count * RUN_HEADER_BYTES)


class TestEncodeBasics:
    def test_identity_delta_is_empty(self):
        block = make_block(3)
        delta = encode_delta(block, block.copy())
        assert delta.is_identity
        assert delta.size_bytes == DELTA_HEADER_BYTES
        assert changed_bytes(delta) == 0

    def test_single_byte_change(self):
        ref = make_block(0)
        target = ref.copy()
        target[100] = 0xFF
        delta = encode_delta(target, ref)
        assert len(delta.runs) == 1
        offset, payload = delta.runs[0]
        assert offset == 100
        assert payload == b"\xff"

    def test_nearby_changes_merge_into_one_run(self):
        ref = make_block(0)
        target = ref.copy()
        target[10] = 1
        target[10 + MERGE_GAP] = 1  # gap == MERGE_GAP merges
        delta = encode_delta(target, ref)
        assert len(delta.runs) == 1

    def test_distant_changes_stay_separate(self):
        ref = make_block(0)
        target = ref.copy()
        target[10] = 1
        target[500] = 1
        delta = encode_delta(target, ref)
        assert len(delta.runs) == 2

    def test_size_model_counts_headers(self):
        ref = make_block(0)
        target = ref.copy()
        target[0:10] = 9
        delta = encode_delta(target, ref)
        assert delta.size_bytes == DELTA_HEADER_BYTES + RUN_HEADER_BYTES + 10

    def test_small_change_gives_small_delta(self):
        # The paper's premise: 5-20% changed bits -> compact deltas.
        ref = make_block(7)
        target = ref.copy()
        target[1000:1200] = 0  # ~5% of the block
        delta = encode_delta(target, ref)
        assert delta.size_bytes < BLOCK_SIZE // 8

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            encode_delta(np.zeros(10, dtype=np.uint8), make_block())


class TestApply:
    def test_roundtrip(self, rng):
        ref = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = ref.copy()
        idx = rng.integers(0, BLOCK_SIZE, 50)
        target[idx] = rng.integers(0, 256, 50)
        delta = encode_delta(target, ref)
        assert np.array_equal(apply_delta(delta, ref), target)

    def test_apply_does_not_mutate_reference(self):
        ref = make_block(1)
        target = make_block(2)
        delta = encode_delta(target, ref)
        apply_delta(delta, ref)
        assert (ref == 1).all()

    def test_apply_rejects_wrong_reference_size(self):
        with pytest.raises(ValueError):
            apply_delta(Delta(runs=()), np.zeros(8, dtype=np.uint8))


class TestWireFormat:
    def test_serialize_roundtrip(self, rng):
        ref = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = ref.copy()
        target[0:100] = 0
        target[2000:2020] = 1
        delta = encode_delta(target, ref)
        blob = delta.serialize()
        assert len(blob) == delta.size_bytes
        decoded = Delta.deserialize(blob)
        assert decoded == delta
        assert np.array_equal(apply_delta(decoded, ref), target)

    def test_golden_wire_digest(self):
        """Byte for byte what the tuple-of-runs codec wrote at 39665f9."""
        golden = pins.load("delta_wire")
        for case in reference_codec.CASES:
            pins.check(reference_codec.pin(case), golden[case])

    def test_runs_view_matches_reference_codec(self):
        for target, ref in reference_codec.wire_corpus().values():
            delta = encode_delta(target, ref)
            frozen = reference_codec.encode_delta(target, ref)
            assert delta.runs == frozen.runs
            assert delta.size_bytes == frozen.size_bytes
            assert changed_bytes(delta) == frozen.changed_bytes
            assert Delta(runs=delta.runs) == delta
            assert hash(Delta(runs=delta.runs)) == hash(delta)

    def test_identity_serializes_to_header_only(self):
        blob = Delta(runs=()).serialize()
        assert len(blob) == DELTA_HEADER_BYTES
        assert Delta.deserialize(blob).is_identity

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            Delta.deserialize(b"\x01")

    def test_truncated_run_header_rejected(self):
        with pytest.raises(ValueError, match="run header"):
            Delta.deserialize(b"\x02\x00" + b"\x00\x00\x05\x00")

    def test_truncated_payload_rejected(self):
        good = Delta(runs=((0, b"hello"),)).serialize()
        with pytest.raises(ValueError, match="payload"):
            Delta.deserialize(good[:-1])
        with pytest.raises(ValueError, match="payload"):
            Delta.deserialize(good + b"!")

    def test_overflowing_run_rejected_on_the_way_in(self):
        """Out-of-block runs never reach apply_delta: the constructor
        and deserialize both refuse them."""
        with pytest.raises(ValueError, match="exceeds"):
            Delta(runs=((BLOCK_SIZE - 1, b"ab"),))
        with pytest.raises(ValueError, match="exceeds"):
            Delta(runs=((70000, b"a"),))
        wire = bytearray(Delta(runs=((BLOCK_SIZE - 2, b"ab"),)).serialize())
        wire[2:4] = (BLOCK_SIZE - 1).to_bytes(2, "little")
        with pytest.raises(ValueError, match="exceeds"):
            Delta.deserialize(bytes(wire))

    def test_unsorted_or_overlapping_runs_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Delta(runs=((10, b"abcd"), (12, b"x")))
        with pytest.raises(ValueError, match="out of order"):
            Delta(runs=((500, b"a"), (20, b"b")))
        swapped = (Delta(runs=((20, b"b"),)).serialize()[2:6],
                   Delta(runs=((500, b"a"),)).serialize()[2:6])
        with pytest.raises(ValueError, match="out of order"):
            Delta.deserialize(b"\x02\x00" + swapped[1] + swapped[0] + b"ab")
        # Touching runs are legal: the check is overlap, not a gap rule.
        assert changed_bytes(Delta(runs=((0, b"ab"), (2, b"c")))) == 3


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_on_arbitrary_mutations(self, data):
        """encode(target, ref) applied to ref always rebuilds target."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        gen = np.random.default_rng(seed)
        ref = gen.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = ref.copy()
        n_changes = data.draw(st.integers(0, 400))
        if n_changes:
            idx = gen.integers(0, BLOCK_SIZE, n_changes)
            target[idx] = gen.integers(0, 256, n_changes)
        delta = encode_delta(target, ref)
        assert np.array_equal(apply_delta(delta, ref), target)
        # Wire roundtrip preserves semantics too, and the bytes are the
        # frozen tuple-of-runs codec's.
        decoded = Delta.deserialize(delta.serialize())
        assert np.array_equal(apply_delta(decoded, ref), target)
        assert delta.serialize() == reference_codec.encode_delta(
            target, ref).serialize()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64),
           st.integers(1, 64))
    def test_size_bounded_by_changed_span(self, seed, n_runs, run_len):
        """Delta size never exceeds header overhead plus merged spans."""
        gen = np.random.default_rng(seed)
        ref = gen.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = ref.copy()
        for _ in range(n_runs):
            start = int(gen.integers(0, BLOCK_SIZE - run_len))
            target[start:start + run_len] ^= 0xFF
        delta = encode_delta(target, ref)
        worst = DELTA_HEADER_BYTES + n_runs * (
            RUN_HEADER_BYTES + run_len + MERGE_GAP)
        assert delta.size_bytes <= worst

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_runs_sorted_and_disjoint(self, seed):
        gen = np.random.default_rng(seed)
        ref = gen.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = gen.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        delta = encode_delta(target, ref)
        end = -MERGE_GAP - 1
        for offset, payload in delta.runs:
            assert offset > end + MERGE_GAP  # merged if closer
            end = offset + len(payload) - 1
