"""Golden snapshots for the ASCII renderers.

``repro.experiments.report`` is the presentation layer for every
figure; its output is eyeballed against the paper's charts, so a silent
formatting drift is a real regression even when the numbers underneath
are right.  Each test
pins the exact rendered text for a small fixed input.
"""

import textwrap

from repro.experiments.report import (comparison_table, normalize,
                                      render_shape_check, shape_check,
                                      shape_score)

MEASURED = {"icash": 420.0, "fusion-io": 300.0, "raid0": 80.0}
PAPER = {"icash": 400.0, "fusion-io": 310.0, "raid0": 90.0}


def golden(text: str) -> str:
    return textwrap.dedent(text).strip("\n")


class TestComparisonTable:
    def test_measured_and_paper_columns(self):
        rendered = comparison_table(
            "Figure 6: SysBench throughput",
            ["icash", "fusion-io", "raid0"], MEASURED, PAPER, "tx/s",
            "higher")
        assert rendered == golden("""
            Figure 6: SysBench throughput
            =============================
            system             measured          paper   (higher is better)
            icash                420.00         400.00  tx/s
            fusion-io            300.00         310.00  tx/s
            raid0                 80.00          90.00  tx/s
        """)

    def test_missing_system_prints_a_dash(self):
        rendered = comparison_table(
            "Table 6", ["icash", "raid0"], {"icash": 1.25},
            {"icash": 2.0}, "writes", "lower")
        assert rendered == golden("""
            Table 6
            =======
            system             measured          paper   (lower is better)
            icash                  1.25           2.00  writes
            raid0                     -              -  writes
        """)


class TestShapeCheck:
    def test_orderings_and_score(self):
        checks = shape_check(MEASURED, PAPER)
        assert checks == {"icash>fusion-io": True,
                          "icash>raid0": True,
                          "fusion-io>raid0": True}
        assert shape_score(MEASURED, PAPER) == 1.0

    def test_render_flags_misses(self):
        flipped = dict(MEASURED, raid0=350.0)
        rendered = render_shape_check(flipped, PAPER)
        assert rendered == golden("""
            pairwise orderings preserved: 2/3
              MISS fusion-io>raid0
              ok  icash>fusion-io
              ok  icash>raid0
        """)


class TestHelpers:
    def test_normalize(self):
        normalized = normalize(MEASURED)
        assert normalized["fusion-io"] == 1.0
        assert normalized["icash"] == 1.4
