"""End-to-end integration tests.

These drive the full pipeline — workload generator, the five storage
architectures, the experiment runner — with content verification on, and
assert the qualitative findings the reproduction is built around.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.recovery import rebuild_controller, recover
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import SYSTEM_NAMES, make_system
from repro.workloads import (MultiVMWorkload, SpecSFSWorkload,
                             SysBenchWorkload, TPCCWorkload)


def verified_grid(spec, system_names):
    """``spec`` on each architecture with every read checked against
    the shadow copy: ``{system name: RunResult}``."""
    results = {}
    for name in system_names:
        cell = replace(spec, system=name)
        workload = cell.build_workload()
        results[name] = run_benchmark(
            workload, cell.build_system(workload), verify_reads=True,
            warmup_fraction=cell.warmup_fraction)
    return results


@pytest.fixture(scope="module")
def sysbench_grid():
    """One verified grid shared by this module's assertions."""
    return verified_grid(
        RunSpec(workload="sysbench", scale=0.25, n_requests=3000,
                warmup_fraction=0.4), SYSTEM_NAMES)


class TestAllSystemsServeCorrectContent:
    def test_grid_verifies(self, sysbench_grid):
        for name, result in sysbench_grid.items():
            assert result.verified_reads > 0, name


class TestQualitativeFindings:
    """The paper's core claims, asserted against live runs."""

    def test_icash_reduces_ssd_writes_drastically(self, sysbench_grid):
        """Table 6's point: I-CASH writes the SSD far less than either
        cache baseline and less than pure SSD."""
        icash = sysbench_grid["icash"].ssd_write_ops
        assert icash < sysbench_grid["fusion-io"].ssd_write_ops / 2
        assert icash < sysbench_grid["lru"].ssd_write_ops / 2
        assert icash < sysbench_grid["dedup"].ssd_write_ops / 2

    def test_icash_write_latency_order_of_magnitude_better(
            self, sysbench_grid):
        """Figure 7's point: delta writes are RAM-speed."""
        assert sysbench_grid["icash"].write_mean_us * 5 \
            < sysbench_grid["fusion-io"].write_mean_us

    def test_icash_beats_raid_overall(self, sysbench_grid):
        assert sysbench_grid["icash"].transactions_per_s \
            > 1.5 * sysbench_grid["raid0"].transactions_per_s

    def test_icash_competitive_with_pure_ssd(self, sysbench_grid):
        """Using one tenth of the SSD, within reach of (or better than)
        a full-size pure-SSD system."""
        assert sysbench_grid["icash"].transactions_per_s \
            > 0.85 * sysbench_grid["fusion-io"].transactions_per_s

    def test_cpu_overhead_is_bounded(self, sysbench_grid):
        """Figure 6(b)'s point: the I-CASH computation is affordable."""
        icash = sysbench_grid["icash"].cpu_utilization
        fusion = sysbench_grid["fusion-io"].cpu_utilization
        assert icash - fusion < 0.15

    def test_block_population_structure(self):
        """Section 5.1: a small reference set covers most blocks."""
        workload = SysBenchWorkload(scale=0.25, n_requests=2000)
        system = make_system("icash", workload)
        run_benchmark(workload, system)
        counts = system.block_kind_counts()
        total = sum(counts.values())
        assert counts["reference"] / total < 0.25
        assert counts["associate"] / total > 0.5


class TestReadsAfterReferenceRetirement:
    """SPEC-sfs at the stock SSD budget (a tenth of the data set) keeps
    refreshing references in place — new bytes to the SSD only — and
    retiring cold ones to free slots for the scan.  A retired reference
    must take its SSD bytes to the HDD first: without that write-back
    12 of 520 reads (seed 2011) and 13 of 482 (seed 7) were stale."""

    @pytest.fixture(scope="class", params=[2011, 7])
    def stock_run(self, request):
        workload = SpecSFSWorkload(scale=0.25, n_requests=6000,
                                   seed=request.param)
        system = make_system("icash", workload)
        system.ingest()
        reads = wrong = 0
        for req in workload.requests():
            if not req.is_read:
                system.process(req)
                continue
            _, contents = system.process_read(req)
            reads += 1
            wrong += any(
                not np.array_equal(content,
                                   workload.shadow[req.lba + offset])
                for offset, content in enumerate(contents))
        return system, reads, wrong

    def test_every_read_matches_shadow(self, stock_run):
        system, reads, wrong = stock_run
        # The path under test actually ran.
        assert system.reference_refreshes > 0
        assert system.references_retired > 0
        assert reads > 400
        assert wrong == 0, f"{wrong} stale reads of {reads}"

    def test_ssd_residency_is_consistent(self, stock_run):
        # What the SSD holds, seen through public introspection only,
        # after every way onto and off it ran against a full SSD — and
        # again on the element rebuilt from that durable state.
        system = stock_run[0]
        for counter in ("references_retired", "reference_refreshes",
                        "delta_spills", "spill_fallbacks",
                        "reference_shadowed"):
            assert getattr(system, counter) > 100, counter
        assert system.shadowed_reference_lbas
        for element in (system, rebuild_controller(system)):
            element.check_invariants()
            references = element.reference_lbas
            spilled = element.spilled_lbas
            assert references and spilled
            assert not spilled & references
            assert element.shadowed_reference_lbas <= references
            dependencies = {ref_lba for ref_lba, _slot
                            in element.delta_map_snapshot().values()}
            for lba in references | spilled | dependencies:
                assert element.ssd_block_content(lba) is not None, lba
            assert len(spilled) + len(references) \
                == len(element.ssd_content_snapshot()) \
                <= element.config.ssd_capacity_blocks


class TestMultiVMIntegration:
    def test_five_vm_grid_verifies_and_icash_wins(self):
        results = verified_grid(
            RunSpec(workload="tpcc", n_vms=3, n_requests=600),
            ("fusion-io", "icash"))
        assert results["icash"].verified_reads > 0
        # Cross-VM image similarity makes I-CASH at least competitive.
        assert results["icash"].transactions_per_s \
            > 0.9 * results["fusion-io"].transactions_per_s


    @pytest.mark.parametrize("engine", ["legacy", "event"])
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_every_system_verifies_on_both_engines(self, system, engine):
        workload = MultiVMWorkload(TPCCWorkload, n_vms=3, scale=0.25,
                                   n_requests_per_vm=300)
        result = run_benchmark(workload, make_system(system, workload),
                               verify_reads=True, engine=engine)
        assert result.n_requests == 900
        assert result.verified_reads > 300

    def test_shadow_indexes_into_each_vms_own_shadow(self):
        workload = MultiVMWorkload(TPCCWorkload, n_vms=3, scale=0.25,
                                   n_requests_per_vm=300)
        written = {request.lba + offset
                   for request in workload.requests() if request.is_write
                   for offset in range(request.nblocks)}
        whole = np.asarray(workload.shadow)
        assert len(written) > 300
        assert not np.array_equal(whole, workload.build_dataset())
        for lba in range(workload.n_blocks):
            vm, local = divmod(lba, workload.vm_blocks)
            block = workload.shadow[lba]
            assert np.array_equal(block, workload.vms[vm].shadow[local])
            assert np.array_equal(block, whole[lba])
        # One access must not rebuild the whole space (3 images, 24 MiB).
        lba = max(written)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            workload.shadow[lba]
            allocated = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert allocated < 64 * 1024


class TestRecoveryAfterRealWorkload:
    def test_crash_after_flush_recovers_benchmark_state(self):
        workload = SysBenchWorkload(scale=0.1, n_requests=1200)
        system = make_system("icash", workload)
        run_benchmark(workload, system, flush_at_end=True)
        image = recover(system)
        shadow = workload.shadow
        mismatches = sum(
            1 for lba in range(workload.n_blocks)
            if not np.array_equal(image.read(lba), shadow[lba]))
        assert mismatches == 0
