"""An array of I-CASH storage elements.

The paper's title promises an *array*: "Each storage element in the
I-CASH consists of an SSD and an HDD that are coupled by an intelligent
algorithm" (Section 1), with Figure 1 showing elements side by side.
The prototype evaluates a single element; this module supplies the
array composition as the natural scale-out step — the same role RAID0
plays for plain disks.

The logical block space stripes across N elements in fixed chunks.
Each element runs its own Heatmap, scanner, reference store and delta
log over its private SSD+HDD pair, so similarity detection stays local
(references anchor blocks that land on the same element — with chunked
striping, spatial neighbours do).  Requests spanning elements dispatch
in parallel, like RAID0 members.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import StorageSystem
from repro.core.config import ICASHConfig
from repro.core.controller import ICASHController
from repro.devices.hdd import HDDSpec
from repro.devices.ssd import SSDSpec


class ICASHArray(StorageSystem):
    """Stripe a logical block space over N independent I-CASH elements."""

    COUNTERS = ("reads", "writes")

    def __init__(self, initial_content: np.ndarray, n_elements: int = 2,
                 chunk_blocks: int = 64,
                 config: Optional[ICASHConfig] = None,
                 hdd_spec: Optional[HDDSpec] = None,
                 ssd_spec: Optional[SSDSpec] = None) -> None:
        if n_elements < 1:
            raise ValueError(
                f"need at least one element, got {n_elements}")
        if chunk_blocks < 1:
            raise ValueError(
                f"chunk must be >= 1 block, got {chunk_blocks}")
        capacity_blocks = initial_content.shape[0]
        super().__init__(f"icash-array-x{n_elements}", capacity_blocks)
        self.n_elements = n_elements
        self.chunk_blocks = chunk_blocks
        if config is None:
            config = ICASHConfig()
        self.config = config
        # Partition initial content round-robin by chunk.
        per_element: List[List[np.ndarray]] = [[] for _ in range(n_elements)]
        for chunk_start in range(0, capacity_blocks, chunk_blocks):
            chunk = initial_content[
                chunk_start:chunk_start + chunk_blocks]
            element = (chunk_start // chunk_blocks) % n_elements
            per_element[element].append(chunk)
        self.elements: List[ICASHController] = []
        for element in range(n_elements):
            content = (np.concatenate(per_element[element])
                       if per_element[element]
                       else np.zeros((chunk_blocks, 4096), dtype=np.uint8))
            self.elements.append(
                ICASHController(content, config, hdd_spec, ssd_spec))

    # -- address translation ------------------------------------------------

    def _locate(self, lba: int) -> Tuple[int, int]:
        """Map a logical block to (element index, element-local lba)."""
        chunk = lba // self.chunk_blocks
        offset = lba % self.chunk_blocks
        element = chunk % self.n_elements
        local_chunk = chunk // self.n_elements
        return element, local_chunk * self.chunk_blocks + offset

    def _split(self, lba: int, nblocks: int
               ) -> Dict[int, List[Tuple[int, int, int]]]:
        """Split a span into per-element (local lba, count, span offset)."""
        per_element: Dict[int, List[Tuple[int, int, int]]] = {}
        block = lba
        remaining = nblocks
        offset = 0
        while remaining > 0:
            element, local = self._locate(block)
            room = self.chunk_blocks - (block % self.chunk_blocks)
            take = min(remaining, room)
            per_element.setdefault(element, []).append(
                (local, take, offset))
            block += take
            offset += take
            remaining -= take
        return per_element

    # -- StorageSystem interface ----------------------------------------------

    def devices(self) -> Iterable:
        for element in self.elements:
            yield from element.devices()

    def inner_systems(self) -> Iterable[StorageSystem]:
        return self.elements

    def ingest(self) -> float:
        """Offline organisation runs on all elements (concurrently in a
        real array; the returned setup time is the slowest element's)."""
        return max(element.ingest() for element in self.elements)

    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        self._check_span(lba, nblocks)
        contents: List[Optional[np.ndarray]] = [None] * nblocks
        slowest = 0.0
        for element_idx, extents in self._split(lba, nblocks).items():
            element = self.elements[element_idx]
            element_time = 0.0
            for local, take, offset in extents:
                latency, blocks = element.read(local, take)
                element_time += latency
                for i, block in enumerate(blocks):
                    contents[offset + i] = block
            slowest = max(slowest, element_time)
        self.reads += 1
        return slowest, contents  # type: ignore[return-value]

    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        self._check_span(lba, len(blocks))
        slowest = 0.0
        for element_idx, extents in self._split(lba, len(blocks)).items():
            element = self.elements[element_idx]
            element_time = 0.0
            for local, take, offset in extents:
                element_time += element.write(
                    local, blocks[offset:offset + take])
            slowest = max(slowest, element_time)
        self.writes += 1
        return slowest

    def flush(self) -> float:
        """Elements flush concurrently; the array waits for the slowest."""
        return max(element.flush() for element in self.elements)

    def check_invariants(self) -> None:
        for element in self.elements:
            element.check_invariants()

    # -- aggregated accounting -----------------------------------------------------

    @property
    def background_time(self) -> float:  # type: ignore[override]
        return sum(element.background_time for element in self.elements)

    @background_time.setter
    def background_time(self, value: float) -> None:
        # StorageSystem.__init__ assigns 0.0; per-element state is the
        # source of truth afterwards, so only a reset makes sense here.
        if value != 0.0:
            raise AttributeError(
                "array background time aggregates its elements")

    @property
    def cpu_time(self) -> float:  # type: ignore[override]
        return sum(element.cpu_time for element in self.elements)

    @cpu_time.setter
    def cpu_time(self, value: float) -> None:
        if value != 0.0:
            raise AttributeError(
                "array CPU time aggregates its elements")

    def block_kind_counts(self) -> Dict[str, int]:
        totals = {"reference": 0, "associate": 0, "independent": 0}
        for element in self.elements:
            for kind, count in element.block_kind_counts().items():
                totals[kind] += count
        return totals
