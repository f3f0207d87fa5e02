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
final state is the one generation leaves.  The content code is
deterministic: an intended change to what a stream holds rewrites the
pins, in a change of its own that says why.
``PYTHONPATH=src:tests python -m reference.stream_digest`` rewrites the
JSON from whatever model is on the path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable

import numpy as np

from repro.workloads import ALL_WORKLOADS, WORKLOADS, MultiVMWorkload
from repro.workloads.base import SyntheticWorkload

DIGEST_PATH = Path(__file__).with_name("stream_digest.json")

SCALE = 0.25
SEEDS = (2011, 7)
REQUESTS = (300, 2000)
MULTIVM = "multivm/specsfs-3vms"


def stream_names():
    return [f"{cls.name}/{seed}/{n}" for cls in ALL_WORKLOADS
            for seed in SEEDS for n in REQUESTS] + [MULTIVM]


def _digest(requests: Iterable, workloads, image=None) -> str:
    sha = hashlib.sha256()
    if image is not None:
        sha.update(np.ascontiguousarray(image).tobytes())
    for request in requests:
        sha.update(f"{request.op.value}:{request.lba}:{request.nblocks};"
                   .encode())
        for block in request.payload or ():
            sha.update(block.tobytes())
    for workload in workloads:
        for lba in sorted(workload.content._anchors):
            sha.update(f"{lba}:".encode())
            sha.update(np.asarray(workload.content._anchors[lba],
                                  dtype="<i8").tobytes())
    return sha.hexdigest()


def pin(name: str) -> Dict:
    """The digest and final generator state of stream ``name``."""
    if name == MULTIVM:
        multi = MultiVMWorkload(WORKLOADS["specsfs"], n_vms=3, scale=SCALE,
                                n_requests_per_vm=300, seed=2011)
        image = multi.build_dataset()
        return {"sha256": _digest(multi._interleave(), multi.vms, image),
                "state": [vm._rng.bit_generator.state
                          for vm in multi.vms]}
    family, seed, n_requests = name.split("/")
    workload: SyntheticWorkload = WORKLOADS[family](
        scale=SCALE, n_requests=int(n_requests), seed=int(seed))
    return {"sha256": _digest(workload._generate(), [workload]),
            "state": workload._rng.bit_generator.state}


def frozen() -> Dict[str, Dict]:
    return json.loads(DIGEST_PATH.read_text())


def regenerate() -> Dict[str, Dict]:
    """Every pin; writing it to ``DIGEST_PATH`` re-freezes them."""
    return {name: pin(name) for name in stream_names()}


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(regenerate(), indent=2,
                                      sort_keys=True) + "\n")
