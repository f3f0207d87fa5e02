"""Frozen write payloads and generator states of the request streams.

``stream_digest.json`` pins, per stream, a sha256 over every request
(op, LBA, length, payload bytes) and over the anchored update offsets
the content model drew, together with the request generator's final
``bit_generator.state``:

* every workload family at scale 0.25, seeds 2011 and 7, 300 and 2 000
  requests, named ``<family>/<seed>/<requests>``;
* one three-VM SPEC-sfs stream, named ``multivm/specsfs-3vms``, whose
  digest also covers the composed image (each VM's divergence is drawn
  by ``ContentModel.mutate`` without an LBA) and whose state is every
  VM's.

Streams are generated directly, past the host's stream memo, so the
final state is the one generation leaves.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator

import numpy as np

from reference import pins
from repro.workloads import ALL_WORKLOADS, WORKLOADS, MultiVMWorkload
from repro.workloads.base import SyntheticWorkload

SCALE = 0.25
SEEDS = (2011, 7)
REQUESTS = (300, 2000)
MULTIVM = "multivm/specsfs-3vms"


CASES = [f"{cls.name}/{seed}/{n}" for cls in ALL_WORKLOADS
         for seed in SEEDS for n in REQUESTS] + [MULTIVM]


def _chunks(requests: Iterable, workloads, image=None) -> Iterator:
    """What a stream's digest covers, in order."""
    if image is not None:
        yield np.ascontiguousarray(image).tobytes()
    for request in requests:
        yield f"{request.op.value}:{request.lba}:{request.nblocks};"
        for block in request.payload or ():
            yield block.tobytes()
    for workload in workloads:
        for lba in sorted(workload.content._anchors):
            yield f"{lba}:"
            yield np.asarray(workload.content._anchors[lba],
                             dtype="<i8").tobytes()


def pin(name: str) -> Dict:
    """The digest and final generator state of stream ``name``."""
    if name == MULTIVM:
        multi = MultiVMWorkload(WORKLOADS["specsfs"], n_vms=3, scale=SCALE,
                                n_requests_per_vm=300, seed=2011)
        image = multi.build_dataset()
        return {"sha256": pins.sha(_chunks(multi._interleave(), multi.vms,
                                           image)),
                "state": [vm._rng.bit_generator.state
                          for vm in multi.vms]}
    family, seed, n_requests = name.split("/")
    workload: SyntheticWorkload = WORKLOADS[family](
        scale=SCALE, n_requests=int(n_requests), seed=int(seed))
    return {"sha256": pins.sha(_chunks(workload._generate(), [workload])),
            "state": workload._rng.bit_generator.state}

