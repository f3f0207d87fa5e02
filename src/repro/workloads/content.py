"""Content generation with tunable content locality.

The generator builds a block population out of *content families*: each
family has a base block, and every member is the base plus a bounded
amount of private noise.  Two dials control the structure the paper's
mechanisms feed on:

* **family count** — fewer families means more cross-block similarity
  (I-CASH's delta scheme wins) and, with duplicates enabled, more exact
  copies (dedup's win);
* **mutation fraction** — how much of a block changes per overwrite.
  The paper cites measurements of 5–20 % of bits changing on a typical
  block write (Section 2.2); heavier mutation defeats delta encoding.

Mutations are applied as a small number of contiguous byte runs rather
than scattered single bytes — real partial updates (a record in a page, a
field in a header) are clustered, and clustering is what makes run-based
delta encoding effective.

The model is built from a dedicated *content seed* while per-request
randomness comes from the caller's RNG.  Keeping the two apart lets the
multi-VM composer clone byte-identical images (same content seed) that
then diverge under independent request streams — the virtual-machine
image sprawl scenario of Section 3.1.

An overwrite decodes one ``random_raw`` draw, with numpy's own
formulas, into exactly the bytes and PCG64 state of a loop of scalar
calls per run (``random()``, ``integers(0, width)``, ``integers(0, 256,
run_len, uint8)``): ``(w >> 11) * 2**-53`` for ``random()``; a 32-bit
draw is the buffered high half, else a fresh word's low half; Lemire's
``(u * width) >> 32`` for a pick; four bytes per 32-bit draw, lowest
first.  A Lemire rejection (about one pick in a million) or a zero-width
range runs the loop instead.  A numpy release that changed a formula
fails ``tests/test_content_draws.py`` and the stream pins rather than
silently drifting a stream.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sim.request import BLOCK_SIZE

#: Private noise bytes on top of the family base, per non-duplicate
#: block (and per :meth:`ContentModel.rewrite`).
FAMILY_NOISE_BYTES = 24

#: Dataset parameters -> the finished initial-content matrix.
DatasetKey = Tuple[int, int, float, int]

#: The per-process data-set memo: the one image in use, under its key.
#: A miss drops it before building the next, so no image is ever built
#: while another is held.  Data sets are deterministic in their
#: parameters, so a hit returns the one frozen matrix every caller
#: shares, bit-identical to rebuilding.
_dataset_cache: Dict[DatasetKey, np.ndarray] = {}
_dataset_counters = {"hits": 0, "misses": 0}


def clear_dataset_cache() -> None:
    """Drop the memoised data set."""
    _dataset_cache.clear()
    _dataset_counters["hits"] = 0
    _dataset_counters["misses"] = 0


def dataset_cache_stats() -> Dict[str, int]:
    return {"hits": _dataset_counters["hits"],
            "misses": _dataset_counters["misses"],
            "size": len(_dataset_cache)}


#: 32-bit draws per noisy block: one per position, a quarter of one
#: per byte value.
_NOISE_DRAWS = FAMILY_NOISE_BYTES + FAMILY_NOISE_BYTES // 4


def sprinkle_family_noise(dataset: np.ndarray, rows: np.ndarray,
                          rng: np.random.Generator) -> None:
    """Overwrite :data:`FAMILY_NOISE_BYTES` random bytes of each of
    ``rows`` of ``dataset``, in one draw from ``rng``.

    Bit for bit the per-row pair ``rng.integers(0, 4096, 24)`` /
    ``rng.integers(0, 256, 24, dtype=np.uint8)``, row after row, and it
    leaves ``rng`` in the same state: both consume the generator's
    32-bit stream, a position being ``u32 >> 20`` (Lemire's method never
    rejects for a power-of-two range) and four byte values being the
    bytes of one ``u32``, lowest first.  A position drawn twice in one
    row keeps its later value, as the per-row assignment does.
    """
    draws = rng.integers(0, 1 << 32, size=(len(rows), _NOISE_DRAWS),
                         dtype=np.uint32)
    positions = draws[:, :FAMILY_NOISE_BYTES] >> 20
    values = np.ascontiguousarray(
        draws[:, FAMILY_NOISE_BYTES:], dtype="<u4").view(np.uint8)
    dataset[np.asarray(rows)[:, None], positions] = values


_ONE_ROW = np.zeros(1, dtype=np.intp)

#: ``Generator.random()``: the top 53 bits of a word, times 2**-53.
_TO_UNIT = 1.0 / 9007199254740992.0


@lru_cache(maxsize=256)
def _run_layout(n_runs: int, run_len: int, reuse: bool, cached: int
                ) -> Tuple[int, int, np.ndarray, Tuple]:
    """Where :meth:`ContentModel._draw_runs`'s draws fall among its
    64-bit words: the words consumed, ``has_uint32`` after them, the
    words read as integers, and per run the positions among those of its
    ``random()`` word and its start pick (-1: none, the buffered half)
    and last fresh word, and the offset of its byte values."""
    needed, runs = [], []
    n_words = 0
    for _ in range(n_runs):
        unit = pick = -1
        if reuse:
            unit = len(needed)
            needed.append(n_words)
            n_words += 1
        if not cached:
            pick = len(needed)
            needed.append(n_words)
        fresh = 1 + (run_len + 3) // 4 - cached
        needed.append(n_words + (fresh - 1) // 2)
        runs.append((unit, pick, len(needed) - 1,
                     8 * n_words + 4 * (1 - cached)))
        n_words += (fresh + 1) // 2
        cached = fresh & 1
    needed = np.array(needed)
    needed.flags.writeable = False
    return n_words, cached, needed, tuple(runs)


class ContentModel:
    """Family-structured content for one workload's block space."""

    def __init__(self, n_blocks: int, n_families: int,
                 mutation_fraction: float, duplicate_fraction: float,
                 content_seed: int) -> None:
        if n_blocks < 1:
            raise ValueError(f"need at least one block, got {n_blocks}")
        if not 1 <= n_families <= n_blocks:
            raise ValueError(
                f"n_families must be in [1, {n_blocks}], got {n_families}")
        if not 0.0 <= mutation_fraction <= 1.0:
            raise ValueError(
                f"mutation_fraction must be in [0, 1], "
                f"got {mutation_fraction}")
        if not 0.0 <= duplicate_fraction <= 1.0:
            raise ValueError(
                f"duplicate_fraction must be in [0, 1], "
                f"got {duplicate_fraction}")
        self.n_blocks = n_blocks
        self.n_families = n_families
        self.mutation_fraction = mutation_fraction
        self.duplicate_fraction = duplicate_fraction
        self.content_seed = content_seed
        # Per-block anchored update offsets: real partial writes hit the
        # same few regions of a block over and over (a row, a header
        # field), so repeated mutations must not diffuse across the whole
        # block — that bounded drift is what keeps deltas small over a
        # block's lifetime.
        self._anchors: dict = {}

    @cached_property
    def _family_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(bases, family_of, unique)``: the family base blocks, each
        block's family and which blocks carry private noise, drawn on
        first use — a workload whose data set and stream both come from
        the host memos never draws it."""
        rng = np.random.default_rng(self.content_seed)
        bases = rng.integers(0, 256, size=(self.n_families, BLOCK_SIZE),
                             dtype=np.uint8)
        family_of = rng.integers(0, self.n_families, size=self.n_blocks)
        unique = rng.random(self.n_blocks) >= self.duplicate_fraction
        return bases, family_of, unique

    # -- initial population -------------------------------------------------

    @property
    def dataset_key(self) -> DatasetKey:
        """Parameters that fully determine :meth:`build_dataset`'s bytes."""
        return (self.n_blocks, self.n_families, self.duplicate_fraction,
                self.content_seed)

    def build_dataset(self) -> np.ndarray:
        """The initial content of every block (deterministic in the seed).

        A ``duplicate_fraction`` of blocks are *exact* copies of their
        family base (dedup-able); the rest carry a little private noise on
        top of the base (delta-able but not identical).

        The finished matrix is frozen and memoised per process: every
        caller receives that same read-only array, bit-identical to a
        fresh build.  Copy it to mutate it.
        """
        key = self.dataset_key
        dataset = _dataset_cache.get(key)
        if dataset is not None:
            _dataset_counters["hits"] += 1
            return dataset
        _dataset_counters["misses"] += 1
        _dataset_cache.clear()
        bases, family_of, unique = self._family_table
        dataset = bases[family_of]
        sprinkle_family_noise(dataset, np.flatnonzero(unique),
                              np.random.default_rng(self.content_seed + 2))
        dataset.flags.writeable = False
        _dataset_cache[key] = dataset
        return dataset

    # -- overwrites ---------------------------------------------------------------

    #: Probability that a mutation run lands on one of the block's
    #: anchored offsets rather than a fresh random position.
    ANCHOR_REUSE_PROB = 0.85
    #: Anchored update sites per block.
    ANCHORS_PER_BLOCK = 6

    def _anchors_of(self, lba: int) -> np.ndarray:
        anchors = self._anchors.get(lba)
        if anchors is None:
            # ``default_rng([content_seed, lba]).integers(0, BLOCK_SIZE,
            # size=6)``: six 32-bit draws, each ``u32 >> 20``.
            words = np.random.PCG64([self.content_seed, int(lba)]) \
                .random_raw(self.ANCHORS_PER_BLOCK // 2)
            anchors = (np.ascontiguousarray(words, dtype="<u8").view(
                "<u4") >> 20).astype(np.int64)
            self._anchors[lba] = anchors
        return anchors

    def mutate(self, current: np.ndarray, rng: np.random.Generator,
               fraction: Optional[float] = None,
               lba: Optional[int] = None) -> np.ndarray:
        """A new version of ``current`` after one application-level write.

        Changes ``fraction`` of the block's bytes, in a handful of
        contiguous runs (clustered partial update).  When ``lba`` is
        given, most runs start at the block's anchored update sites, so
        repeated writes churn the same regions instead of diffusing
        change across the whole block.  Returns a fresh array.
        """
        fraction = self.mutation_fraction if fraction is None else fraction
        updated = current.copy()
        total = int(BLOCK_SIZE * fraction)
        if total <= 0:
            return updated
        n_runs = max(1, min(8, total // 64))
        run_len = max(1, total // n_runs)
        anchors = self._anchors_of(lba) if lba is not None else None
        if not self._decode_runs(updated, rng, n_runs, run_len, anchors):
            updated = current.copy()
            self._draw_runs(updated, rng, n_runs, run_len, anchors)
        return updated

    def _draw_runs(self, updated: np.ndarray, rng: np.random.Generator,
                   n_runs: int, run_len: int,
                   anchors: Optional[np.ndarray]) -> None:
        """Write ``n_runs`` runs into ``updated``, one draw at a time."""
        for _ in range(n_runs):
            if anchors is not None \
                    and rng.random() < self.ANCHOR_REUSE_PROB:
                start = int(anchors[rng.integers(0, len(anchors))])
                start = min(start, BLOCK_SIZE - run_len)
            else:
                start = int(rng.integers(0, max(1, BLOCK_SIZE - run_len)))
            updated[start:start + run_len] = rng.integers(
                0, 256, size=run_len, dtype=np.uint8)

    def _decode_runs(self, updated: np.ndarray, rng: np.random.Generator,
                     n_runs: int, run_len: int,
                     anchors: Optional[np.ndarray]) -> bool:
        """:meth:`_draw_runs` from one ``random_raw`` call; ``False``,
        with ``rng`` untouched and ``updated`` spoilt, where the draws
        cannot be decoded."""
        bitgen = rng.bit_generator
        span = BLOCK_SIZE - run_len
        if not isinstance(bitgen, np.random.PCG64) or span <= 1:
            return False
        state = bitgen.state
        n_words, cached, needed, runs = _run_layout(
            n_runs, run_len, anchors is not None, state["has_uint32"])
        raw = bitgen.random_raw(n_words).astype("<u8", copy=False)
        words = raw[needed].tolist()
        octets = raw.view(np.uint8)
        uinteger = state["uinteger"]
        for unit, pick_at, last, at in runs:
            pick = uinteger if pick_at < 0 else words[pick_at] & 0xFFFFFFFF
            anchored = unit >= 0 and (words[unit] >> 11) * _TO_UNIT \
                < self.ANCHOR_REUSE_PROB
            width = len(anchors) if anchored else span
            scaled = pick * width
            if scaled & 0xFFFFFFFF < (1 << 32) % width:
                bitgen.state = state        # Lemire would draw again
                return False
            start = scaled >> 32
            if anchored:
                start = min(int(anchors[start]), span)
            updated[start:start + run_len] = octets[at:at + run_len]
            uinteger = words[last] >> 32
        if (cached, uinteger) != (state["has_uint32"], state["uinteger"]):
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = cached, uinteger
            bitgen.state = state
        return True

    def duplicate_of(self, lba: int) -> np.ndarray:
        """Exact-copy content for ``lba``: its family base.

        Used by workloads that occasionally write identical blocks
        (snapshots, log rotation, packaged files) — the traffic dedup
        caches feed on.
        """
        bases, family_of, _ = self._family_table
        return bases[family_of[lba]].copy()

    def rewrite(self, lba: int, rng: np.random.Generator) -> np.ndarray:
        """A full rewrite: fresh family-based content for ``lba``.

        Unlike :meth:`mutate`, the result is unrelated to the current
        content but still similar to the family base — a new record page,
        a rewritten file, a reprovisioned VM block.
        """
        bases, family_of, _ = self._family_table
        block = bases[family_of[lba]].copy()
        sprinkle_family_noise(block[None], _ONE_ROW, rng)
        return block
