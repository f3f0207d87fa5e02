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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sim.request import BLOCK_SIZE

#: Bound on the per-process data-set memo (images), counting the one
#: being built: a build first evicts down to one image, so no image is
#: built while two others are held.  Two is the paper grid's reuse
#: distance — SysBench and TPC-C share one image, and Figure 8(a)'s
#: Hadoop image comes between their uses; every other image serves one
#: unbroken run of figures.  Data sets are deterministic in their
#: parameters, so a hit returns the one frozen matrix every caller
#: shares, bit-identical to rebuilding.
DATASET_CACHE_CAPACITY = 2

#: Private noise bytes on top of the family base, per non-duplicate
#: block (and per :meth:`ContentModel.rewrite`).
FAMILY_NOISE_BYTES = 24

#: Dataset parameters -> the finished initial-content matrix.
DatasetKey = Tuple[int, int, float, int]

_dataset_cache: "OrderedDict[DatasetKey, np.ndarray]" = OrderedDict()
_dataset_counters = {"hits": 0, "misses": 0}


def clear_dataset_cache() -> None:
    """Drop memoised datasets."""
    _dataset_cache.clear()
    _dataset_counters["hits"] = 0
    _dataset_counters["misses"] = 0


def dataset_cache_stats() -> Dict[str, int]:
    return {"hits": _dataset_counters["hits"],
            "misses": _dataset_counters["misses"],
            "size": len(_dataset_cache)}


def _dataset_cache_get(key: DatasetKey) -> Optional[np.ndarray]:
    cached = _dataset_cache.get(key)
    if cached is not None:
        _dataset_cache.move_to_end(key)
        _dataset_counters["hits"] += 1
        return cached
    _dataset_counters["misses"] += 1
    return None


def _make_room_for_build() -> None:
    """Evict the oldest images until the one about to be built fits."""
    while len(_dataset_cache) >= DATASET_CACHE_CAPACITY:
        _dataset_cache.popitem(last=False)


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
        build_rng = np.random.default_rng(content_seed)
        self._bases = build_rng.integers(
            0, 256, size=(n_families, BLOCK_SIZE), dtype=np.uint8)
        self.family_of = build_rng.integers(0, n_families, size=n_blocks)
        self._unique_mask = (build_rng.random(n_blocks)
                             >= duplicate_fraction)
        # Per-block anchored update offsets: real partial writes hit the
        # same few regions of a block over and over (a row, a header
        # field), so repeated mutations must not diffuse across the whole
        # block — that bounded drift is what keeps deltas small over a
        # block's lifetime.
        self._anchor_rng = np.random.default_rng(content_seed + 3)
        self._anchors: dict = {}

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
        dataset = _dataset_cache_get(key)
        if dataset is None:
            _make_room_for_build()
            dataset = self._bases[self.family_of]
            sprinkle_family_noise(
                dataset, np.flatnonzero(self._unique_mask),
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
            per_block_rng = np.random.default_rng(
                [self.content_seed, int(lba)])
            anchors = per_block_rng.integers(
                0, BLOCK_SIZE, size=self.ANCHORS_PER_BLOCK)
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
        for _ in range(n_runs):
            if anchors is not None \
                    and rng.random() < self.ANCHOR_REUSE_PROB:
                start = int(anchors[rng.integers(0, len(anchors))])
                start = min(start, BLOCK_SIZE - run_len)
            else:
                start = int(rng.integers(0, max(1, BLOCK_SIZE - run_len)))
            updated[start:start + run_len] = rng.integers(
                0, 256, size=run_len, dtype=np.uint8)
        return updated

    def duplicate_of(self, lba: int) -> np.ndarray:
        """Exact-copy content for ``lba``: its family base.

        Used by workloads that occasionally write identical blocks
        (snapshots, log rotation, packaged files) — the traffic dedup
        caches feed on.
        """
        return self._bases[self.family_of[lba]].copy()

    def rewrite(self, lba: int, rng: np.random.Generator) -> np.ndarray:
        """A full rewrite: fresh family-based content for ``lba``.

        Unlike :meth:`mutate`, the result is unrelated to the current
        content but still similar to the family base — a new record page,
        a rewritten file, a reprovisioned VM block.
        """
        block = self._bases[self.family_of[lba]].copy()
        sprinkle_family_noise(block[None], _ONE_ROW, rng)
        return block
