"""Trace file I/O.

Workloads in this repository are generated on the fly, but real studies
archive traces.  This module serialises a content-bearing request stream
to a single ``.npz`` file and replays it later — useful for freezing a
workload, sharing it, or diffing two generator versions.

Format (inside the npz):

* ``ops``     — int8 array, 0 = read, 1 = write
* ``lbas``    — int64 array, start block of each request
* ``lengths`` — int32 array, blocks per request
* ``vm_ids``  — int32 array
* ``timestamps`` — float64 array, issue times in seconds (0.0 when the
  source carries none)
* ``payload`` — uint8 array of shape (total written blocks, 4096),
  the concatenated write payloads in stream order
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Union

import numpy as np

from repro.sim.backing import BackingStore
from repro.sim.request import BLOCK_SIZE, IORequest, OpType


def save_trace(path: Union[str, Path],
               requests: Iterable[IORequest]) -> int:
    """Serialise ``requests`` to ``path``; returns the request count."""
    ops: List[int] = []
    lbas: List[int] = []
    lengths: List[int] = []
    vm_ids: List[int] = []
    timestamps: List[float] = []
    payload_blocks: List[np.ndarray] = []
    for request in requests:
        ops.append(0 if request.is_read else 1)
        lbas.append(request.lba)
        lengths.append(request.nblocks)
        vm_ids.append(request.vm_id)
        timestamps.append(request.timestamp)
        if request.is_write:
            payload_blocks.extend(request.payload)
    payload = (np.stack(payload_blocks)
               if payload_blocks
               else np.empty((0, BLOCK_SIZE), dtype=np.uint8))
    np.savez_compressed(
        Path(path),
        ops=np.asarray(ops, dtype=np.int8),
        lbas=np.asarray(lbas, dtype=np.int64),
        lengths=np.asarray(lengths, dtype=np.int32),
        vm_ids=np.asarray(vm_ids, dtype=np.int32),
        timestamps=np.asarray(timestamps, dtype=np.float64),
        payload=payload)
    return len(ops)


def load_trace(path: Union[str, Path]) -> Iterator[IORequest]:
    """Replay a trace saved by :func:`save_trace`."""
    with np.load(Path(path)) as archive:
        ops = archive["ops"]
        lbas = archive["lbas"]
        lengths = archive["lengths"]
        vm_ids = archive["vm_ids"]
        payload = archive["payload"]
        if "timestamps" in archive.files:
            timestamps = archive["timestamps"]
        else:  # archives written before the field existed
            timestamps = np.zeros(len(ops), dtype=np.float64)
    cursor = 0
    for op, lba, length, vm_id, ts in zip(ops, lbas, lengths, vm_ids,
                                          timestamps):
        if op == 0:
            yield IORequest(OpType.READ, int(lba), int(length),
                            vm_id=int(vm_id), timestamp=float(ts))
        else:
            blocks = [payload[cursor + i] for i in range(length)]
            cursor += length
            yield IORequest(OpType.WRITE, int(lba), int(length),
                            payload=blocks, vm_id=int(vm_id),
                            timestamp=float(ts))


class TraceWorkload:
    """An archived trace as a first-class :class:`Workload`.

    Wraps a trace file plus the initial dataset it was captured against,
    exposing the same interface the synthetic generators provide —
    restartable ``requests()``, a live ``shadow`` — so archived traces
    drop straight into the experiment runner and the systems factory.

    The transaction model (``ios_per_transaction``,
    ``app_compute_per_tx``, ``io_concurrency``) is taken from the
    workload class the trace was captured from, or set explicitly.
    """

    def __init__(self, path: Union[str, Path], initial: np.ndarray,
                 name: str = "trace", ios_per_transaction: int = 4,
                 app_compute_per_tx: float = 2e-3,
                 io_concurrency: int = 8,
                 app_cpu_fraction: float = 0.55) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"no trace at {self.path}")
        # The store's own rule: share a frozen image, copy a writeable one.
        self._initial = BackingStore(initial).view_all()
        self._shadow = BackingStore(self._initial)
        self.name = name
        self.ios_per_transaction = ios_per_transaction
        self.app_compute_per_tx = app_compute_per_tx
        self.io_concurrency = io_concurrency
        self.app_cpu_fraction = app_cpu_fraction
        with np.load(self.path) as archive:
            self.n_requests = int(archive["ops"].shape[0])

    @classmethod
    def capture(cls, path: Union[str, Path], workload) -> "TraceWorkload":
        """Archive ``workload``'s stream and wrap the result.

        Copies the source workload's transaction model so replays measure
        like the original.
        """
        save_trace(path, workload.requests())
        return cls(path, workload.build_dataset(),
                   name=f"{workload.name}-trace",
                   ios_per_transaction=workload.ios_per_transaction,
                   app_compute_per_tx=workload.app_compute_per_tx,
                   io_concurrency=getattr(workload, "io_concurrency", 8),
                   app_cpu_fraction=getattr(workload, "app_cpu_fraction",
                                            0.55))

    @property
    def n_blocks(self) -> int:
        return self._initial.shape[0]

    @property
    def data_size_bytes(self) -> int:
        return self.n_blocks * BLOCK_SIZE

    @property
    def ssd_budget_blocks(self) -> int:
        return max(64, self.n_blocks // 10)

    @property
    def shadow(self) -> BackingStore:
        return self._shadow

    def build_dataset(self) -> np.ndarray:
        return self._initial.view()

    def requests(self) -> Iterator[IORequest]:
        self._shadow = BackingStore(self._initial)
        for request in load_trace(self.path):
            if request.is_write:
                for offset, block in enumerate(request.payload):
                    self._shadow[request.lba + offset] = block
            yield request
