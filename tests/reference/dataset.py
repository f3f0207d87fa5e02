"""Frozen per-block family-noise loop of ``ContentModel.build_dataset``.

This is the loop as of commit c6d8f7f: one ``rng.integers`` call for
the 24 positions and one for the 24 values of every unique block, in
LBA order, on a generator seeded ``content_seed + 2``.  The production
build decodes the same words from one ``random_raw`` call; this copy
stays so it is held to the loop's bytes and the loop's generator state,
not merely to itself.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.sim.request import BLOCK_SIZE
from repro.workloads.content import ContentModel

NOISE_BYTES = 24


def sprinkle_noise_loop(dataset: np.ndarray, rows: np.ndarray,
                        rng: np.random.Generator) -> None:
    """Overwrite ``NOISE_BYTES`` random bytes of each of ``rows``."""
    for lba in rows:
        block = dataset[lba]
        positions = rng.integers(0, BLOCK_SIZE, size=NOISE_BYTES)
        block[positions] = rng.integers(0, 256, size=NOISE_BYTES,
                                        dtype=np.uint8)


def loop_dataset(model: ContentModel) -> Tuple[np.ndarray, Dict]:
    """The data set the loop builds for ``model``, and its noise
    generator's ``bit_generator.state`` afterwards."""
    bases, family_of, unique = model._family_table
    dataset = bases[family_of]
    rng = np.random.default_rng(model.content_seed + 2)
    sprinkle_noise_loop(dataset, np.flatnonzero(unique), rng)
    return dataset, rng.bit_generator.state
