"""repro — a reproduction of I-CASH (Ren & Yang, HPCA 2011).

I-CASH — the Intelligently Coupled Array of SSD and HDD — stores
seldom-changed *reference blocks* on an SSD and a sequential log of
content *deltas* on an HDD, trading cheap CPU cycles (delta compression,
similarity detection) for expensive mechanical disk operations while
keeping random writes off the SSD.

Quickstart (``tests/test_quickstart.py`` runs it)::

    import numpy as np
    from repro import ICASHConfig, ICASHController

    rng = np.random.default_rng(1)
    families = rng.integers(0, 256, (24, 4096), dtype=np.uint8)
    dataset = families[rng.integers(0, 24, 2048)]  # 8 MiB, 24 families
    icash = ICASHController(dataset, ICASHConfig(ssd_capacity_blocks=256))
    icash.ingest()                     # offline reference selection
    print(icash.block_kind_counts())   # reference / associate / independent
    block = dataset[7].copy()
    block[128:192] = 0xAB              # a small partial update ...
    latency = icash.write(7, [block])  # ... is buffered as a RAM delta
    latency, (content,) = icash.read(7)
    assert (content == block).all()    # SSD reference + delta, decoded

For the paper's experiments use the CLI: ``python -m repro --help``
(``validate figure10a``, ``validate figure15``, ``analyze sysbench``,
``chaos --quick``, ...).

Package map:

* :mod:`repro.core` — the I-CASH controller and its machinery.
* :mod:`repro.devices` — SSD (NAND + FTL), HDD, RAID0 and DRAM models.
* :mod:`repro.delta` — the delta codec, segment pool and HDD delta log.
* :mod:`repro.baselines` — the paper's four comparison architectures.
* :mod:`repro.workloads` — the six benchmark trace generators.
* :mod:`repro.metrics` — energy and CPU-utilisation models.
* :mod:`repro.experiments` — runners regenerating every table and figure.
"""

from repro.baselines import (DedupCacheStorage, LRUCacheStorage, PureSSD,
                             RAID0Storage, StorageSystem)
from repro.core import Heatmap, ICASHConfig, ICASHController
from repro.sim import IORequest, OpType

__version__ = "1.0.0"

__all__ = [
    "DedupCacheStorage",
    "Heatmap",
    "ICASHConfig",
    "ICASHController",
    "IORequest",
    "LRUCacheStorage",
    "OpType",
    "PureSSD",
    "RAID0Storage",
    "StorageSystem",
    "__version__",
]
