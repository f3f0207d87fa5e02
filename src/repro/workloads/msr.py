"""Adapter for MSR-Cambridge-style block traces.

The de-facto community format for block traces (SNIA's MSR-Cambridge
release) is a CSV of::

    timestamp,hostname,disk_number,type,offset,size,response_time

with ``offset``/``size`` in bytes and ``type`` in {Read, Write}.  These
traces carry **no content** — and the paper is explicit that content is
what I-CASH's evaluation needs.  The adapter therefore does the honest
thing: it replays the trace's exact *addresses, sizes, ordering and
read/write mix*, and synthesises write payloads from this repository's
family-based content model (documented as a substitution; the content
knobs are explicit parameters).

Use it to drive the simulator with real-world access patterns::

    workload = MSRTraceWorkload("proj_0.csv", mutation_fraction=0.1)
    system = make_system("icash", workload)
    run_benchmark(workload, system)
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.sim.backing import BackingStore
from repro.sim.request import BLOCK_SIZE, IORequest, OpType
from repro.workloads.content import ContentModel

#: Accepted spellings of the operation column.
_READ_TOKENS = {"read", "r", "rs"}
_WRITE_TOKENS = {"write", "w", "ws"}


def parse_msr_row(row: List[str]) -> Tuple[float, str, int, int, int]:
    """One CSV row -> (timestamp, op, start block, block count, size).

    Raises ``ValueError`` with a row-specific message on malformed input.
    """
    if len(row) < 6:
        raise ValueError(f"MSR row needs >= 6 columns, got {len(row)}")
    timestamp = float(row[0])
    op = row[3].strip().lower()
    if op in _READ_TOKENS:
        op = "read"
    elif op in _WRITE_TOKENS:
        op = "write"
    else:
        raise ValueError(f"unknown MSR op type {row[3]!r}")
    offset = int(row[4])
    size = int(row[5])
    if offset < 0 or size <= 0:
        raise ValueError(f"bad offset/size {offset}/{size}")
    start_block = offset // BLOCK_SIZE
    end_block = -(-(offset + size) // BLOCK_SIZE)
    return timestamp, op, start_block, end_block - start_block, size


class MSRTraceWorkload:
    """Replay an MSR-format trace with synthesised content.

    The address space is the trace's own footprint, remapped densely:
    block addresses are compacted in first-touch order, so a sparse
    multi-terabyte offset range becomes a dense simulatable space.

    Content substitution: writes synthesise payloads via
    :class:`ContentModel` — family-structured blocks with anchored
    partial overwrites — because the source format has none.
    """

    def __init__(self, path: Union[str, Path],
                 max_requests: Optional[int] = None,
                 max_request_blocks: int = 64,
                 n_families: Optional[int] = None,
                 mutation_fraction: float = 0.10,
                 duplicate_fraction: float = 0.05,
                 name: Optional[str] = None,
                 ios_per_transaction: int = 8,
                 app_compute_per_tx: float = 2e-3,
                 io_concurrency: int = 8,
                 app_cpu_fraction: float = 0.55,
                 content_seed: int = 2011) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"no trace at {self.path}")
        self.name = name or f"msr:{self.path.stem}"
        self.ios_per_transaction = ios_per_transaction
        self.app_compute_per_tx = app_compute_per_tx
        self.io_concurrency = io_concurrency
        self.app_cpu_fraction = app_cpu_fraction
        self.max_request_blocks = max_request_blocks

        # First pass: learn the footprint and build the dense remap.
        # Entries: (op, dense lba, nblocks, timestamp seconds).
        self._ops: List[Tuple[str, int, int, float]] = []
        remap: dict = {}
        with open(self.path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                ts, op, start, nblocks, _size = parse_msr_row(row)
                nblocks = min(nblocks, max_request_blocks)
                for block in range(start, start + nblocks):
                    if block not in remap:
                        remap[block] = len(remap)
                dense = remap[start]
                # Compaction is first-touch order, so a multi-block
                # span stays contiguous when first seen together.
                self._ops.append((op, dense, nblocks, ts))
                if max_requests and len(self._ops) >= max_requests:
                    break
        if not self._ops:
            raise ValueError(f"{self.path} contains no usable requests")
        self._n_blocks = max(64, len(remap))
        if n_families is None:
            n_families = max(2, self._n_blocks // 32)
        self.content = ContentModel(
            n_blocks=self._n_blocks, n_families=n_families,
            mutation_fraction=mutation_fraction,
            duplicate_fraction=duplicate_fraction,
            content_seed=content_seed)
        self._initial = self.content.build_dataset()
        self._shadow = BackingStore(self._initial)
        self.n_requests = len(self._ops)
        self._content_seed = content_seed

    # -- Workload interface -------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def data_size_bytes(self) -> int:
        return self._n_blocks * BLOCK_SIZE

    @property
    def ssd_budget_blocks(self) -> int:
        return max(64, self._n_blocks // 10)

    @property
    def shadow(self) -> BackingStore:
        return self._shadow

    def build_dataset(self) -> np.ndarray:
        return self._initial.view()

    def requests(self) -> Iterator[IORequest]:
        self._shadow = BackingStore(self._initial)
        rng = np.random.default_rng(self._content_seed + 7)
        for op, lba, nblocks, ts in self._ops:
            end = min(lba + nblocks, self._n_blocks)
            span = max(1, end - lba)
            if op == "read":
                yield IORequest(OpType.READ, lba, span, timestamp=ts)
                continue
            payload = []
            for block in range(lba, lba + span):
                content = self.content.mutate(self._shadow[block], rng,
                                              lba=block)
                self._shadow[block] = content
                payload.append(content)
            yield IORequest(OpType.WRITE, lba, span, payload=payload,
                            timestamp=ts)

    def footprint_summary(self) -> str:
        reads = sum(1 for op, _, _, _ in self._ops if op == "read")
        return (f"{self.name}: {self.n_requests} requests "
                f"({reads / self.n_requests:.0%} reads) over "
                f"{self._n_blocks} distinct blocks "
                f"({self.data_size_bytes / 2**20:.1f} MiB footprint)")
