"""Unit tests for the Heatmap, including the paper's Table 1 worked
example reproduced value for value."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heatmap import Heatmap

# The paper's toy alphabet: contents A,B,C,D have signatures a,b,c,d.
A, B, C, D = 0, 1, 2, 3


def record(heatmap, signatures):
    """Register one block access, as one row of a batch."""
    heatmap.record_batch([signatures])


def row(heatmap, index):
    """One row of popularity counters (``record_batch`` scatters at
    once, so none is pending)."""
    return tuple(int(v) for v in heatmap._counts[index])


class TestTable1Example:
    """Table 1: 2 sub-blocks per block, Vs = 4, four requests."""

    def test_buildup_step_by_step(self):
        heatmap = Heatmap(rows=2, values=4)
        assert row(heatmap, 0) == (0, 0, 0, 0)
        assert row(heatmap, 1) == (0, 0, 0, 0)

        record(heatmap, (A, B))       # LBA1: content (A, B)
        assert row(heatmap, 0) == (1, 0, 0, 0)
        assert row(heatmap, 1) == (0, 1, 0, 0)

        record(heatmap, (C, D))       # LBA2: content (C, D)
        assert row(heatmap, 0) == (1, 0, 1, 0)
        assert row(heatmap, 1) == (0, 1, 0, 1)

        record(heatmap, (A, D))       # LBA3: content (A, D)
        assert row(heatmap, 0) == (2, 0, 1, 0)
        assert row(heatmap, 1) == (0, 1, 0, 2)

        record(heatmap, (B, D))       # LBA4: content (B, D)
        assert row(heatmap, 0) == (2, 1, 1, 0)
        assert row(heatmap, 1) == (0, 1, 0, 3)

    def test_popularities_match_table2(self):
        """Table 2's popularity column: 3, 4, 5, 4."""
        heatmap = Heatmap(rows=2, values=4)
        for sigs in ((A, B), (C, D), (A, D), (B, D)):
            record(heatmap, sigs)
        assert heatmap.popularity((A, B)) == 3
        assert heatmap.popularity((C, D)) == 4
        assert heatmap.popularity((A, D)) == 5
        assert heatmap.popularity((B, D)) == 4


class TestHeatmapMechanics:
    def test_default_dimensions_match_prototype(self):
        heatmap = Heatmap()
        assert heatmap.rows == 8
        assert heatmap.values == 256

    def test_record_validates_signature_count(self):
        heatmap = Heatmap(rows=2, values=4)
        with pytest.raises(ValueError):
            record(heatmap, (1,))

    def test_record_validates_signature_range(self):
        heatmap = Heatmap(rows=2, values=4)
        with pytest.raises(ValueError):
            record(heatmap, (0, 4))

    def test_total_accesses(self):
        heatmap = Heatmap(rows=2, values=4)
        record(heatmap, (0, 0))
        record(heatmap, (1, 1))
        assert heatmap.total_accesses == 2

    def test_temporal_locality_captured(self):
        """Re-accessing one block raises its own popularity."""
        heatmap = Heatmap(rows=2, values=4)
        record(heatmap, (A, B))
        before = heatmap.popularity((A, B))
        record(heatmap, (A, B))
        assert heatmap.popularity((A, B)) == before + 2

    def test_content_locality_captured(self):
        """Accessing a *similar* block (shared sub-signatures at the same
        positions) raises the popularity of both — the Heatmap's point."""
        heatmap = Heatmap(rows=2, values=4)
        record(heatmap, (A, D))
        record(heatmap, (B, D))  # shares sub-signature D at row 1
        assert heatmap.popularity((A, D)) == 3

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Heatmap(rows=0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    max_size=50))
    def test_row_sums_equal_access_count(self, accesses):
        """Invariant: every access adds exactly one count per row."""
        heatmap = Heatmap(rows=2, values=4)
        for sigs in accesses:
            record(heatmap, sigs)
        for index in range(2):
            assert sum(row(heatmap, index)) == len(accesses)
