"""Section 5.3's conclusion, quantified: the SSD-write reduction of
Table 6 projects into a longer device lifetime.

Runs SysBench on every SSD-bearing architecture, reads the FTL's
per-block erase counters, and projects lifetime at each run's observed
wear rate.  I-CASH's SSD — written almost exclusively by offline ingest
and rare spills — must project the longest life per flash block.
"""

from repro.experiments.lifetime import (lifetime_projection,
                                        render_lifetime_table)
from repro.experiments.parallel import RunSpec


def test_table6_lifetime_projection(benchmark):
    rows = benchmark.pedantic(
        lambda: lifetime_projection(
            RunSpec(workload="sysbench", n_requests=10000,
                    warmup_fraction=0.4)),
        rounds=1, iterations=1)
    print()
    print(render_lifetime_table(rows, "SSD lifetime after SysBench"))
    for name, row in rows.items():
        benchmark.extra_info[f"erases_{name}"] = row.total_erases
    # The lifetime argument: I-CASH erases its flash the least (per
    # block — its device is a tenth of fusion-io's but same-sized as
    # the cache baselines').
    icash = rows["icash"]
    for other in ("dedup", "lru"):
        assert icash.total_erases <= rows[other].total_erases
    # And projected life is never worse than the same-budget caches'.
    if icash.projected_years is not None:
        for other in ("dedup", "lru"):
            years = rows[other].projected_years
            if years is not None:
                assert icash.projected_years >= years
