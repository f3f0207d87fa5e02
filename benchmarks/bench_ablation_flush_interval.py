"""Ablation: the flush interval (Section 3.3's reliability knob).

"For reliability purposes, we would like to perform write to HDD as
soon as possible whereas for performance purposes we would like to pack
as many deltas in one block as possible."  The sweep quantifies both
sides: HDD log writes per flushed delta (packing efficiency) and the
crash-loss window (blocks whose latest content recovery cannot see).
"""

from dataclasses import replace

import numpy as np

from repro.core import ICASHController
from repro.core.recovery import recover
from repro.experiments.systems import make_icash_config
from repro.workloads import SysBenchWorkload

INTERVALS = (64, 256, 1024, 4096)


def run_with_interval(interval: int):
    workload = SysBenchWorkload(n_requests=6000)
    config = replace(make_icash_config(workload),
                     flush_interval=interval,
                     flush_dirty_count=10 ** 9)  # interval is the knob
    system = ICASHController(workload.build_dataset(), config)
    system.ingest()
    for request in workload.requests():
        system.process(request)
    # Crash *without* a final flush: measure the loss window.
    image = recover(system)
    shadow = workload.shadow
    lost = sum(1 for lba in range(workload.n_blocks)
               if not np.array_equal(image.read(lba), shadow[lba]))
    flushes = system.delta_flushes
    records = system.delta_records_flushed
    log_blocks = system.log.blocks_written
    return lost, flushes, records, log_blocks


def test_ablation_flush_interval(benchmark):
    def sweep():
        return {i: run_with_interval(i) for i in INTERVALS}

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nAblation: flush interval (crash with no final flush)")
    print(f"{'interval':>9} {'lost_blocks':>11} {'flushes':>8} "
          f"{'deltas/log_block':>16}")
    for interval, (lost, flushes, records, log_blocks) in outcomes.items():
        density = records / log_blocks if log_blocks else 0.0
        print(f"{interval:>9} {lost:>11} {flushes:>8} {density:>16.1f}")
        benchmark.extra_info[f"lost_{interval}"] = lost
    # The tradeoff must be visible: rare flushes lose more on a crash.
    assert outcomes[4096][0] >= outcomes[64][0]
