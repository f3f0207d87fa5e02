"""Tests for trace serialisation."""

import numpy as np

from repro.sim.request import OpType
from repro.workloads import TPCCWorkload
from repro.workloads.trace_io import load_trace, save_trace

from conftest import make_block


class TestTraceRoundtrip:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        assert save_trace(path, []) == 0
        assert list(load_trace(path)) == []

    def test_manual_requests_roundtrip(self, tmp_path):
        from repro.sim.request import make_read, make_write
        requests = [
            make_read(5, nblocks=2, vm_id=1),
            make_write(7, [make_block(1), make_block(2)], vm_id=3),
            make_read(0),
        ]
        path = tmp_path / "trace.npz"
        assert save_trace(path, requests) == 3
        loaded = list(load_trace(path))
        assert len(loaded) == 3
        for original, copy in zip(requests, loaded):
            assert copy.op == original.op
            assert copy.lba == original.lba
            assert copy.nblocks == original.nblocks
            assert copy.vm_id == original.vm_id
        assert np.array_equal(loaded[1].payload[0], make_block(1))
        assert np.array_equal(loaded[1].payload[1], make_block(2))

    def test_workload_trace_roundtrip(self, tmp_path):
        workload = TPCCWorkload(scale=0.05, n_requests=120)
        path = tmp_path / "tpcc.npz"
        count = save_trace(path, workload.requests())
        assert count == 120
        originals = list(workload.requests())
        for original, copy in zip(originals, load_trace(path)):
            assert copy.op == original.op
            assert copy.lba == original.lba
            assert copy.nblocks == original.nblocks
            if original.is_write:
                for a, b in zip(original.payload, copy.payload):
                    assert np.array_equal(a, b)

    def test_replayed_trace_drives_a_system(self, tmp_path):
        """A saved trace must be a drop-in replacement for the
        generator when replayed into a storage system."""
        from repro.baselines import PureSSD
        workload = TPCCWorkload(scale=0.05, n_requests=80)
        path = tmp_path / "replay.npz"
        save_trace(path, workload.requests())
        system = PureSSD(workload.build_dataset())
        for request in load_trace(path):
            system.process(request)
        assert system.read_latency.count > 0
        assert system.write_latency.count > 0
