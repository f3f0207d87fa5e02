"""Unit tests for reference selection and the similarity scanner,
including the paper's Table 2 selection example."""

import numpy as np
import pytest

from repro.core.cache import ICashCache
from repro.core.heatmap import Heatmap
from repro.core.signatures import block_signatures
from repro.core.similarity import (SimilarityScanner, popularity_ranking,
                                   select_reference)
from repro.core.virtual_block import BlockKind, VirtualBlock
from repro.delta.segments import SegmentPool
from repro.sim.request import BLOCK_SIZE

A, B, C, D = 0, 1, 2, 3


def table1_heatmap() -> Heatmap:
    heatmap = Heatmap(rows=2, values=4)
    for sigs in ((A, B), (C, D), (A, D), (B, D)):
        heatmap.record_batch([sigs])
    return heatmap


class TestTable2Selection:
    def test_most_popular_block_selected(self):
        """Table 2: block (A, D) at LBA3 has popularity 5 and is chosen."""
        heatmap = table1_heatmap()
        entries = [("LBA1", (A, B)), ("LBA2", (C, D)),
                   ("LBA3", (A, D)), ("LBA4", (B, D))]
        assert select_reference(entries, heatmap) == "LBA3"

    def test_ranking_matches_popularity_column(self):
        heatmap = table1_heatmap()
        entries = [("LBA1", (A, B)), ("LBA2", (C, D)),
                   ("LBA3", (A, D)), ("LBA4", (B, D))]
        ranked = popularity_ranking(entries, heatmap)
        assert ranked[0] == ("LBA3", 5)
        assert {ranked[1][0], ranked[2][0]} == {"LBA2", "LBA4"}
        assert ranked[3] == ("LBA1", 3)

    def test_ties_preserve_input_order(self):
        heatmap = table1_heatmap()
        ranked = popularity_ranking(
            [("x", (C, D)), ("y", (B, D))], heatmap)
        assert [key for key, _ in ranked] == ["x", "y"]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            select_reference([], table1_heatmap())


def make_cache() -> ICashCache:
    return ICashCache(max_virtual_blocks=1024,
                      data_ram_bytes=256 * BLOCK_SIZE,
                      segment_pool=SegmentPool(1 << 20))


def make_scanner(heatmap: Heatmap) -> SimilarityScanner:
    return SimilarityScanner(heatmap, min_signature_match=4,
                             delta_accept_bytes=2048,
                             scan_compare_s=2e-6, compress_s=15e-6)


def populate(cache: ICashCache, heatmap: Heatmap, blocks) -> dict:
    """Insert blocks as independents with data; returns lba -> content."""
    contents = {}
    for lba, content in blocks:
        vb = VirtualBlock(lba=lba, kind=BlockKind.INDEPENDENT)
        vb.signatures = block_signatures(content)
        cache.insert(vb)
        cache.attach_data(vb, content)
        heatmap.record_batch([vb.signatures])
        contents[lba] = content
    return contents


class TestScanner:
    def test_similar_blocks_pair_with_one_reference(self, rng):
        """A family of similar blocks yields one reference, rest
        associates — the paper's 1 % / 85 % structure in miniature."""
        cache = make_cache()
        heatmap = Heatmap()
        base = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        family = []
        for lba in range(10):
            member = base.copy()
            member[lba * 10:(lba * 10) + 20] = 0
            family.append((lba, member))
        populate(cache, heatmap, family)
        scanner = make_scanner(heatmap)
        result = scanner.scan(cache, window=100, max_new_references=50,
                              content_fn=lambda vb: vb.data)
        assert len(result.new_references) == 1
        assert len(result.associations) == 9
        ref_lba = result.new_references[0].lba
        assert all(a.ref_lba == ref_lba for a in result.associations)

    def test_dissimilar_blocks_all_become_references(self, rng):
        cache = make_cache()
        heatmap = Heatmap()
        blocks = [(lba, rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8))
                  for lba in range(6)]
        populate(cache, heatmap, blocks)
        scanner = make_scanner(heatmap)
        result = scanner.scan(cache, window=100, max_new_references=50,
                              content_fn=lambda vb: vb.data)
        assert len(result.associations) == 0
        assert len(result.new_references) >= 1

    def test_promotions_capped_by_ssd_budget(self, rng):
        cache = make_cache()
        heatmap = Heatmap()
        blocks = [(lba, rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8))
                  for lba in range(8)]
        populate(cache, heatmap, blocks)
        scanner = make_scanner(heatmap)
        result = scanner.scan(cache, window=100, max_new_references=2,
                              content_fn=lambda vb: vb.data)
        assert len(result.new_references) <= 2

    def test_blocks_without_content_are_skipped(self, rng):
        cache = make_cache()
        heatmap = Heatmap()
        blocks = [(lba, rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8))
                  for lba in range(4)]
        populate(cache, heatmap, blocks)
        scanner = make_scanner(heatmap)
        result = scanner.scan(cache, window=100, max_new_references=50,
                              content_fn=lambda vb: None)
        assert result.new_references == []
        assert result.associations == []

    def test_scan_accounts_cpu_time(self, rng):
        cache = make_cache()
        heatmap = Heatmap()
        base = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        blocks = [(lba, base.copy()) for lba in range(5)]
        populate(cache, heatmap, blocks)
        scanner = make_scanner(heatmap)
        result = scanner.scan(cache, window=100, max_new_references=10,
                              content_fn=lambda vb: vb.data)
        assert result.cpu_time > 0
        assert result.blocks_examined == 5

    def test_existing_associates_left_alone(self, rng):
        cache = make_cache()
        heatmap = Heatmap()
        base = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        populate(cache, heatmap, [(0, base), (1, base.copy())])
        vb = cache.get(1)
        vb.kind = BlockKind.ASSOCIATE
        from repro.delta.encoder import Delta
        cache.attach_delta(vb, Delta(runs=()))
        scanner = make_scanner(heatmap)
        result = scanner.scan(cache, window=100, max_new_references=10,
                              content_fn=lambda vb: vb.data)
        assert all(a.vb.lba != 1 for a in result.associations)

    def test_low_overlap_prevents_pairing(self, rng):
        """Candidates sharing fewer than min_signature_match positions
        never even get a delta encode."""
        cache = make_cache()
        heatmap = Heatmap()
        a = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        b = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        populate(cache, heatmap, [(0, a), (1, b)])
        scanner = make_scanner(heatmap)
        result = scanner.scan(cache, window=100, max_new_references=1,
                              content_fn=lambda vb: vb.data)
        # Only one promotion allowed and the other block cannot pair.
        assert len(result.associations) == 0


class TestScanOnMatureCache:
    """The scan inside a live controller, several scans deep: the window
    is then mostly references and associates that already hold a delta —
    the blocks a scan skips — which no hand-built window above contains.
    """

    @pytest.fixture(scope="class")
    def scans(self):
        """One record per scan of a short SPEC-sfs run: the production
        outcome, the direct reference's outcome on the same inputs, how
        many window blocks were eligible and how often the matcher's
        index was probed."""
        from reference.similarity import direct_scan, outcome
        from repro.experiments.runner import run_benchmark
        from repro.experiments.systems import make_system
        from repro.workloads import SpecSFSWorkload

        workload = SpecSFSWorkload(scale=0.25, n_requests=400, seed=2011)
        system = make_system("icash", workload)
        scanner = system.scanner
        production_scan = scanner.scan
        index = scanner.signature_index
        index_candidates = index.candidates
        probes = []
        records = []

        def counting_candidates(row, value):
            probes.append(row)
            return index_candidates(row, value)

        def scan_both_ways(cache, window, max_new_references, content_fn):
            args = (cache, window, max_new_references, content_fn)
            direct = outcome(direct_scan(scanner, *args))
            kinds = {"reference": 0, "paired": 0, "eligible": 0}
            for vb in cache.mru_window(window):
                if not vb.signatures:
                    continue
                if vb.is_reference:
                    kinds["reference"] += 1
                elif vb.kind is BlockKind.ASSOCIATE and vb.has_delta:
                    kinds["paired"] += 1
                elif content_fn(vb) is not None:
                    kinds["eligible"] += 1
            probes.clear()
            result = production_scan(*args)
            records.append({"production": outcome(result),
                            "direct": direct, "probes": len(probes),
                            **kinds})
            return result

        scanner.scan = scan_both_ways
        index.candidates = counting_candidates
        run_benchmark(workload, system, verify_reads=True, engine="event")
        return records

    def test_run_reaches_a_mature_window(self, scans):
        assert len(scans) >= 5
        last = scans[-1]
        assert last["reference"] > 100 and last["paired"] > 100
        assert last["reference"] + last["paired"] > 20 * last["eligible"]
        assert any(s["production"]["new_references"] for s in scans[1:])
        assert any(s["production"]["associations"] for s in scans[1:])

    def test_production_matches_reference_at_every_scan(self, scans):
        for number, scan in enumerate(scans):
            assert scan["production"] == scan["direct"], \
                f"scan {number} diverged from the direct scan"

    def test_matcher_probed_once_per_eligible_block(self, scans):
        """Host cost follows the blocks a scan can pair, not the window:
        one index probe per sub-signature of each eligible block."""
        from repro.core.signatures import SUB_BLOCKS

        for number, scan in enumerate(scans):
            assert scan["probes"] == SUB_BLOCKS * scan["eligible"], \
                f"scan {number}: {scan['probes']} probes for " \
                f"{scan['eligible']} eligible blocks"
