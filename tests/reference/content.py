"""Frozen per-run mutation loop and per-block anchors of ``ContentModel``.

This is ``ContentModel.mutate`` and ``ContentModel._anchors_of`` as of
commit 5e04fa9: three scalar ``Generator`` calls per changed run (the
anchor-reuse ``random()``, the start pick, the run's byte values) and a
``Generator`` built per LBA for its six anchored offsets.  The
production model decodes the same words from one ``random_raw`` call;
this copy stays so it is held to the loop's bytes and the loop's
generator state, not merely to itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.request import BLOCK_SIZE
from repro.workloads.content import ContentModel


def anchors_loop(model: ContentModel, lba: int) -> np.ndarray:
    """``lba``'s anchored update offsets, from a generator of its own."""
    per_block_rng = np.random.default_rng([model.content_seed, int(lba)])
    return per_block_rng.integers(0, BLOCK_SIZE,
                                  size=model.ANCHORS_PER_BLOCK)


def mutate_loop(model: ContentModel, current: np.ndarray,
                rng: np.random.Generator, fraction: Optional[float] = None,
                lba: Optional[int] = None) -> np.ndarray:
    """A new version of ``current``, one run at a time."""
    fraction = model.mutation_fraction if fraction is None else fraction
    updated = current.copy()
    total = int(BLOCK_SIZE * fraction)
    if total <= 0:
        return updated
    n_runs = max(1, min(8, total // 64))
    run_len = max(1, total // n_runs)
    anchors = anchors_loop(model, lba) if lba is not None else None
    for _ in range(n_runs):
        if anchors is not None \
                and rng.random() < model.ANCHOR_REUSE_PROB:
            start = int(anchors[rng.integers(0, len(anchors))])
            start = min(start, BLOCK_SIZE - run_len)
        else:
            start = int(rng.integers(0, max(1, BLOCK_SIZE - run_len)))
        updated[start:start + run_len] = rng.integers(
            0, 256, size=run_len, dtype=np.uint8)
    return updated
