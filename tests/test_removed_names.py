"""Facts the model keeps once stay kept once.

Each row is a pattern over ``src/repro`` (or the part of it a fourth
field names) for a parallel copy of some fact that was folded into one
record, for a per-operation layer that was folded into one frame, or for
a second way of counting, and where that fact lives now.  A match means
the copy came back.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (test id, pattern, where the fact lives now[, path prefix])
REMOVED = (
    # What the SSD holds for an lba: one _SSDCopy record.
    ("_ssd_data", r"_ssd_data", "_SSDCopy.data"),
    ("_slot_of", r"_slot_of", "_SSDCopy.slot"),
    ("_ssd_versions", r"_ssd_versions",
     "the identity of _SSDCopy.data, which is replaced wholesale"),
    ("_ssd_ahead", r"_ssd_ahead", "_SSDCopy.own"),
    ("_shadowed_refs", r"_shadowed_refs", "_SSDCopy.own"),
    ("associate_count", r"associate_count",
     "ICASHController._ref_dependents"),
    ("ssd_slot", r"\bssd_slot\b", "_SSDCopy.slot"),
    # What the controller knows of a delta-mapped lba: one
    # _DeltaMapEntry, plus its place in the flush queue.
    ("delta_dirty", r"delta_dirty",
     "membership in ICASHController._dirty_delta_lbas"),
    ("has_own_entry", r"has_own_entry|external_dependents",
     "_ref_dependents, which counts only other blocks"),
    ("vb.ref_lba", r"\b(?:vb|sibling|victim)\.ref_lba\b",
     "_DeltaMapEntry.ref_lba"),
    ("VirtualBlock(ref_lba=)",
     r"\b(?:VirtualBlock|_install_virtual_block)\([^)]*\bref_lba\b",
     "_DeltaMapEntry.ref_lba"),
    # The FTL is flat columns and a device operation one frame.
    ("_FlashBlock", r"_FlashBlock",
     "FlashSSD's _l2p / _owner / _valid / _erases lists"),
    ("_program_page", r"_program_page", "FlashSSD.write"),
    ("_place_page", r"_place_page",
     "FlashSSD.write and FlashSSD._garbage_collect"),
    ("_positioning_time", r"_positioning_time", "HardDiskDrive._access"),
    # A count is an int attribute everywhere (devices and systems alike).
    ("stats.bump", r"stats\.bump\(",
     "an int counter attribute declared in COUNTERS"),
    ("StatsCollector", r"StatsCollector",
     "Counted.counters() and two LatencyStats attributes"),
    ("record_latency", r"record_latency",
     "StorageSystem.read_latency / write_latency"),
    (".stats.count", r"\.stats\.count\(", "the counter attribute itself"),
    # The run ledger is one JSONL file, and deep diagnosis one command.
    ("sqlite3", r"sqlite3",
     "LedgerWriter's lines in export.jsonl, appended under ledger.lock"),
    ("DB_NAME", r"\bDB_NAME\b|ledger\.db", "ledger.EXPORT_NAME"),
    ("args.deep", r"args\.deep|--deep",
     "repro explain A B, which calls explain_ledger_rows"),
    # One noise-aware tolerance.
    ("tolerance copies", r"_scalar_tolerance|_row_tolerance_us|noise_sem_us"
     r"|rel_tol_for|\bdef _tolerance\b",
     "bench.tolerance and bench.noise_sem"),
    # The batch signature kernels live beside the scalar ones.
    ("repro.core.batch", r"repro\.core\.batch|core\.batch import",
     "repro.core.signatures"),
    # Signatures are recomputed on every call: there is no memo.
    ("clear_signature_cache", r"clear_signature_cache",
     "nothing: block_signatures keeps no state"),
    ("SIGNATURE_CACHE_CAPACITY", r"SIGNATURE_CACHE_CAPACITY",
     "nothing: block_signatures keeps no state"),
    ("_signature_cache", r"\b_signature_cache\b",
     "nothing: block_signatures keeps no state"),
    # The data-set memo holds the one image in use.
    ("DATASET_CACHE_CAPACITY", r"DATASET_CACHE_CAPACITY",
     "nothing: a data-set miss drops the held image before building"),
    ("_make_room_for_build", r"_make_room_for_build",
     "ContentModel.build_dataset, which clears the memo on a miss"),
    # A VM image's drift is applied once, inside the composed image.
    ("image_divergence", r"image_divergence",
     "MultiVMWorkload, which drifts each VM's slice of its one image"),
    # Every paper series is one row of figures.SERIES.
    ("def figure7", r"\bdef figure7\b",
     "ALL_FIGURES['figure7read'] and ALL_FIGURES['figure7write']"),
    ("def figure9", r"\bdef figure9\b",
     "ALL_FIGURES['figure9read'] and ALL_FIGURES['figure9write']"),
    ("def table5", r"\bdef table5\b", "ALL_FIGURES['table5<family>']"),
    ("def table6", r"\bdef table6\b", "ALL_FIGURES['table6<family>']"),
    ("_FIGURE_FAMILY", r"_FIGURE_FAMILY", "Series.family"),
    ("_FIGURE_MULTIVM", r"_FIGURE_MULTIVM",
     "Series.multivm, read by figures.run_figure"),
    # No verb draws bar charts.
    ("render_bars", r"render_bars", "FigureResult.render"),
    ("ascii_bars", r"ascii_bars", "FigureResult.render"),
)


@pytest.fixture(scope="module")
def sources():
    files = {path.relative_to(SRC.parent).as_posix(): path.read_text()
             for path in sorted(SRC.rglob("*.py"))}
    assert len(files) > 50, "the scan found no source tree"
    return files


@pytest.mark.parametrize("row", REMOVED, ids=[row[0] for row in REMOVED])
def test_name_stays_removed(sources, row):
    _id, pattern, replaced_by, *under = row
    regex = re.compile(pattern)
    hits = [f"{name}:{text.count(chr(10), 0, match.start()) + 1}"
            for name, text in sources.items()
            if name.startswith(under[0] if under else "repro/")
            for match in regex.finditer(text)]
    assert not hits, f"{pattern} is back (use {replaced_by}): {hits}"


def test_patterns_spare_the_records_own_field():
    """The reference pointer itself is legitimate wherever a record
    holds it — the log's DeltaRecord, the delta map's entry, a scan's
    Association — and so is a local variable of that name."""
    allowed = ("DeltaRecord(lba, ref_lba, delta)", "record.ref_lba",
               "entry.ref_lba", "self.ref_lba = ref_lba",
               "self._delta_map[vb.lba].ref_lba", "assoc.ref_lba",
               "Association(vb=vb, ref_lba=best.lba, delta=delta)")
    for text in allowed:
        for row in REMOVED:
            assert not re.search(row[1], text), (row[1], text)
