#!/usr/bin/env python
"""Quickstart: one I-CASH storage element, end to end.

Builds an I-CASH element over a small data set with strong content
locality, performs the offline ingest (reference selection + delta
packing), issues reads and writes, and prints what the architecture did
internally: how few reference blocks cover the population, where reads
were served from, and how rarely the SSD was written.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ICASHConfig, ICASHController

BLOCK = 4096


def build_dataset(n_blocks: int = 2048, n_families: int = 24,
                  seed: int = 1) -> np.ndarray:
    """Blocks clustered into content families (think: DB pages sharing a
    schema, VM images sharing an OS)."""
    rng = np.random.default_rng(seed)
    bases = rng.integers(0, 256, (n_families, BLOCK), dtype=np.uint8)
    dataset = bases[rng.integers(0, n_families, n_blocks)].copy()
    for lba in range(n_blocks):  # a little private noise per block
        idx = rng.integers(0, BLOCK, 24)
        dataset[lba, idx] = rng.integers(0, 256, 24)
    return dataset


def main() -> None:
    dataset = build_dataset()
    config = ICASHConfig(
        ssd_capacity_blocks=256,           # ~12% of the data set
        data_ram_bytes=128 * BLOCK,
        delta_ram_bytes=2 * 1024 * 1024,
        max_virtual_blocks=8192,
        log_blocks=2048,
        scan_interval=500,
    )
    icash = ICASHController(dataset.copy(), config)

    print("=== ingest: offline reference selection + delta packing ===")
    setup_time = icash.ingest()
    counts = icash.block_kind_counts()
    total = sum(counts.values())
    print(f"setup time (not charged to the benchmark): {setup_time:.3f}s")
    for kind, count in counts.items():
        print(f"  {kind:<12} {count:>5} blocks ({count / total:5.1%})")

    print("\n=== a write becomes a delta, not a device write ===")
    rng = np.random.default_rng(7)
    target = next(iter(icash.delta_map_snapshot()))
    content = dataset[target].copy()
    content[128:192] = rng.integers(0, 256, 64)   # small partial update
    latency = icash.write(target, [content])
    print(f"write to block {target}: {latency * 1e6:.1f} µs "
          f"(SSD untouched: {icash.delta_writes} delta "
          f"write(s) buffered in RAM)")

    print("\n=== a read reconstructs reference + delta ===")
    latency, (out,) = icash.read(target)
    assert np.array_equal(out, content), "content must round-trip!"
    print(f"read of block {target}: {latency * 1e6:.1f} µs "
          f"(SSD reference read + RAM delta + decompression)")

    print("\n=== a random-access burst ===")
    for i in range(2000):
        lba = int(rng.integers(0, dataset.shape[0]))
        if rng.random() < 0.3:
            block = dataset[lba].copy()
            block[0:64] = rng.integers(0, 256, 64)
            dataset[lba] = block
            icash.write(lba, [block])
        else:
            icash.read(lba)
    icash.flush()

    print("\ncontroller counters")
    for name, value in sorted(icash.counters().items()):
        print(f"  {name:<32} {value:>8}")
    print(f"\nSSD write ops (whole run): {icash.ssd.write_ops} — the "
          f"reason Table 6 projects a longer SSD life")
    print(f"HDD ops: {icash.hdd.read_ops} reads / "
          f"{icash.hdd.write_ops} writes (log appends are sequential)")


if __name__ == "__main__":
    main()
