"""Multi-VM workload composition (Figures 15 and 16).

Section 5.1: "It is common to setup several similar virtual machines on
the same physical machine to run multiple services... On each virtual
machine, a distinct data set and benchmark parameters are used."  The
five TPC-C VMs use 1–5 warehouses; the five RUBiS VMs use 20–24 items
per page.

The composer gives each VM a private region of the logical block space,
but all VM images are clones of one golden image (same content seed)
that have drifted slightly — the *virtual machine image sprawl* of
Section 2.2.  The resulting cross-VM content similarity is exactly what
I-CASH exploits to win 2.8x over pure SSD in Figure 15: thousands of
blocks across images delta-compress against a tiny shared reference set.

Per-VM request streams are interleaved round-robin, modelling the
concurrent VMs competing for the shared storage element.  The
interleaved stream is memoised as one entry, like a single workload's.
"""

from __future__ import annotations

from typing import Iterator, List, Type

import numpy as np

from repro.sim.request import IORequest
from repro.workloads.base import (SyntheticWorkload, Workload,
                                  memoised_stream)


class _VMShadows:
    """The VMs' own shadows, indexed as one block space."""

    def __init__(self, vms: List[SyntheticWorkload]) -> None:
        self._vms = vms
        self._vm_blocks = vms[0].n_blocks

    def __len__(self) -> int:
        return len(self._vms) * self._vm_blocks

    def __getitem__(self, lba: int) -> np.ndarray:
        vm, local = divmod(lba, self._vm_blocks)
        return self._vms[vm].shadow[local]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.concatenate([np.asarray(vm.shadow, dtype=dtype)
                               for vm in self._vms])


class MultiVMWorkload(Workload):
    """N cloned VMs running the same benchmark over one storage element."""

    def __init__(self, workload_cls: Type[SyntheticWorkload],
                 n_vms: int = 5, scale: float = 0.25,
                 n_requests_per_vm: int = 2000, seed: int = 2011) -> None:
        if n_vms < 1:
            raise ValueError(f"need at least one VM, got {n_vms}")
        self.n_vms = n_vms
        # Same content seed -> identical golden image; different request
        # seed + growing divergence -> "distinct data set and benchmark
        # parameters" per VM.
        self.vms: List[SyntheticWorkload] = [
            workload_cls(scale=scale, n_requests=n_requests_per_vm,
                         seed=seed + 101 * vm, vm_id=vm, content_seed=seed,
                         image_divergence=0.01 * vm)
            for vm in range(n_vms)]
        self.vm_blocks = self.vms[0].n_blocks
        for vm in self.vms[1:]:
            if vm.n_blocks != self.vm_blocks:
                raise ValueError("all VM images must be the same size")
        self.name = f"{self.vms[0].name}-{n_vms}vms"
        self.ios_per_transaction = self.vms[0].ios_per_transaction
        # Guest application compute runs concurrently across the VMs (the
        # host is multi-core); what the VMs genuinely contend for is the
        # shared storage element.  Per-transaction compute therefore
        # scales down with the VM count while I/O time does not.
        self.app_compute_per_tx = self.vms[0].app_compute_per_tx / n_vms
        self.app_cpu_fraction = getattr(self.vms[0], "app_cpu_fraction",
                                        0.55)
        self.io_concurrency = getattr(self.vms[0], "io_concurrency", 8)
        self._initial = np.concatenate([vm.build_dataset()
                                        for vm in self.vms])
        self._initial.flags.writeable = False

    # -- Workload interface -------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self.n_vms * self.vm_blocks

    @property
    def shadow(self) -> _VMShadows:
        return _VMShadows(self.vms)

    def build_dataset(self) -> np.ndarray:
        return self._initial.view()

    def _translate(self, vm_index: int, request: IORequest) -> IORequest:
        base = vm_index * self.vm_blocks
        return IORequest(request.op, base + request.lba, request.nblocks,
                         payload=request.payload, vm_id=vm_index,
                         timestamp=request.timestamp)

    def requests(self) -> Iterator[IORequest]:
        """Round-robin interleave of the per-VM streams.

        The interleaved, translated stream is one stream-memo entry,
        keyed by the VMs' stream keys; the per-VM streams take none of
        their own, so a replay neither regenerates nor re-translates
        them.
        """
        return memoised_stream(tuple(vm._stream_key for vm in self.vms),
                               self._interleave, self._replay)

    def _interleave(self) -> Iterator[IORequest]:
        streams = [vm._generate() for vm in self.vms]
        live = list(range(self.n_vms))
        while live:
            finished: List[int] = []
            for vm_index in live:
                try:
                    request = next(streams[vm_index])
                except StopIteration:
                    finished.append(vm_index)
                    continue
                yield self._translate(vm_index, request)
            for vm_index in finished:
                live.remove(vm_index)

    def _replay(self, stream: List[IORequest]) -> Iterator[IORequest]:
        """Yield the memoised stream, writing each VM's shadow as the
        generation pass did."""
        for vm in self.vms:
            vm._reset()
        for request in stream:
            if request.is_write:
                vm_shadow = self.vms[request.vm_id].shadow
                local = request.lba - request.vm_id * self.vm_blocks
                for offset, block in enumerate(request.payload):
                    vm_shadow[local + offset] = block
            yield request

    def cross_vm_similarity(self) -> float:
        """Fraction of VM-1..N-1 initial blocks identical to VM 0's copy.

        A quick measure of how much image sprawl the composition created;
        exercised by tests and the VM example.
        """
        if self.n_vms < 2:
            return 1.0
        golden = self.vms[0].build_dataset()
        identical = 0
        total = 0
        for vm in self.vms[1:]:
            image = vm.build_dataset()
            identical += int(
                (image == golden).all(axis=1).sum())
            total += self.vm_blocks
        return identical / total if total else 1.0
