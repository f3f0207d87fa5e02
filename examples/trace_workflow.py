#!/usr/bin/env python
"""Trace archival workflow: freeze a workload, replay it anywhere.

The paper stresses that evaluating I-CASH needs *content-bearing* traces
("I/O address traces are not sufficient because deltas are content
dependent").  This example generates a SPEC-sfs style stream, saves it to
a single .npz file, and replays the archived trace — byte-identical —
into two different architectures.

Run:  python examples/trace_workflow.py
"""

import tempfile
from pathlib import Path

from repro.experiments.systems import make_system
from repro.workloads import SpecSFSWorkload
from repro.workloads.trace_io import load_trace, save_trace


def main() -> None:
    workload = SpecSFSWorkload(scale=0.25, n_requests=2500, seed=42)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "specsfs.npz"
        count = save_trace(path, workload.requests())
        size_mb = path.stat().st_size / 2**20
        print(f"archived {count} requests (full 4 KB payloads included) "
              f"to {path.name}: {size_mb:.1f} MiB compressed")

        for name in ("icash", "fusion-io"):
            system = make_system(name, workload)
            system.ingest()
            total_latency = 0.0
            replayed = 0
            for request in load_trace(path):
                total_latency += system.process(request)
                replayed += 1
            reads = system.read_latency
            writes = system.write_latency
            print(f"\nreplayed {replayed} archived requests into {name}:")
            print(f"  mean read : {reads.mean_us:9.1f} µs "
                  f"(n={reads.count})")
            print(f"  mean write: {writes.mean_us:9.1f} µs "
                  f"(n={writes.count})")
            print(f"  SSD writes: {system.ssd_write_ops}")

    print("\nthe archive replays identically every time — diff two "
          "storage builds on exactly the same byte stream.")


if __name__ == "__main__":
    main()
