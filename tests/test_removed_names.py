"""Facts the model keeps once stay kept once.

Each row is a pattern over ``src/repro`` (or the part of it a fourth
field names) for a parallel copy of some fact that was folded into one
record, for a per-operation layer that was folded into one frame, for
a second way of counting or for a removed second oracle, and where
that fact lives now.  A match means the copy came back.
"""

import ast
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
     "Counted.counters(), and the run's own measurement for latencies"),
    ("record_latency", r"record_latency",
     "the run's measurement (RunResult.read_mean_us and the like)"),
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
     "repro.ledger.tolerance and repro.ledger.noise_sem"),
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
    # The explain engine diffs what the verbs hand it: ledger rows,
    # which carry neither a series nor a queueing summary.
    ("window_fingerprint", r"window_fingerprint|FINGERPRINT_",
     "nowhere: no verb's input carried a series to fingerprint"),
    ("segment_phases / diff_phases", r"segment_phases|diff_phases",
     "nowhere: no verb's input carried a series to segment"),
    ("diff_queueing / QueueingDiff", r"diff_queueing|QueueingDiff",
     "nowhere yet: a ledger row needs a station summary first (the "
     "ROADMAP engine item)"),
    ("explain_results / view_from_result",
     r"explain_results|view_from_result",
     "explain_ledger_rows, the input the verbs pass"),
    # No verb reads a file it wrote back in.
    ("trace readers", r"read_jsonl|load_chrome_trace|load_chrome_metadata",
     "nowhere: no verb reads a trace back (completeness_header rides "
     "in the exports)"),
    ("profile_trace", r"profile_trace",
     "the live Profiler behind critpath; fold_stacks for a recorded "
     "trace"),
    ("parse_folded", r"parse_folded",
     "nowhere: no verb reads folded stacks back"),
    ("parse_flame_diff", r"parse_flame_diff",
     "nowhere: no verb reads a flame diff back"),
    # Model code emits into one recorder; the ring trace and the
    # profiler are folds over what it keeps.
    ("_CaptureTracer", r"_CaptureTracer",
     "trace.Recorder, the one implementation of the emission protocol"),
    ("_Span", r"\b_Span\b",
     "the recorder's kept emission tuples (trace.SPAN)"),
    ("downstream_tracer", r"downstream_tracer",
     "EventEngine(tracer=...), a fold over the engine's recorder"),
    ("VirtualClock", r"VirtualClock|repro\.sim\.clock",
     "the float cursor RingBufferTracer.fold advances"),
    (".downstream.", r"\.downstream\.",
     "RingBufferTracer.fold over what the recorder kept"),
    # Where a request's time went is attributed once, by the profiler,
    # and its latency recorded once, by the run's measurement.
    ("phase_breakdown", r"phase_breakdown|PhaseBreakdown",
     "the Profiler's AttributionTable, which repro trace prints"),
    ("_fold_requests", r"_fold_requests",
     "fold_stacks, whose request stacks are the AttributionTable's rows"),
    ("PSEUDO_DEVICES", r"PSEUDO_DEVICES",
     "nothing: no code read it"),
    (".read_latency / .write_latency", r"\.(read|write)_latency\b",
     "RunResult.read_mean_us / write_mean_us from the run's own "
     "measurement, or the request stream's own counts"),
    # Simulated behaviour has one exact oracle, not a tolerance band.
    ("experiments.bench", r"experiments\.bench|experiments import bench",
     "tests/reference/grid_digest.json, held by tests/test_grid_digest.py"),
    ("BENCH_SCHEMA_VERSION", r"BENCH_SCHEMA_VERSION",
     "nothing: schema_versions() names the ledger's alone"),
    ("explain_bench_cases", r"explain_bench_cases", "explain_ledger_rows"),
    ("view_from_bench_case", r"view_from_bench_case",
     "explain_ledger_rows"),
    ("RunSpec(profile=)",
     r"\bprofile\s*:\s*bool|\bprofile=|spec\.profile\b",
     "run_benchmark(profiler=Profiler()), as the grid digest's "
     "profiled runs attach it"),
    # Two runs are compared one way: repro explain reads two ledger
    # rows directly and names every recipe difference.
    ("diff_rows", r"\bdiff_rows\b",
     "repro.analysis.explain.explain_ledger_rows"),
    ("provenance_hints", r"provenance_hints",
     "repro.analysis.explain.rank_suspects"),
    ("FieldDelta", r"\bFieldDelta\b",
     "repro.analysis.explain.ScalarDelta"),
    ("RunDiff", r"\bRunDiff\b", "repro.analysis.explain.ExplainReport"),
    ("RunView", r"\bRunView\b|view_from_ledger_row",
     "the LedgerRow itself, read through ledger.flatten_metrics, "
     "ledger.max_sem and ledger.attribution_index"),
    ('"diff" in LEDGER_SUBCOMMANDS',
     r'LEDGER_SUBCOMMANDS = \([^)]*"diff"|_ledger_sub\("diff"',
     "repro explain A B", "repro/cli.py"),
    # The monitor reads the stack through one table: no model class
    # registers an instrument, and the engine and the fault injector
    # keep none.
    ("register_metrics", r"register_metrics",
     "INSTRUMENT_CATALOGUE's source and read, walked by Monitor.attach"),
    ("set_metrics", r"set_metrics", "Monitor.attach"),
    ("set_fn", r"set_fn\(", "InstrumentSpec.read"),
    ("_register_station", r"_register_station",
     "the engine rows' reads over EventEngine.stations"),
    ("_wait_hist", r"\bwait_hist\b|_wait_hist",
     "Monitor.fold, which observes queue_wait_us from "
     "RequestRecord.wait_s"),
    ("FaultInjector(registry=)",
     r"FaultInjector\([^)]*\bregistry\b|\bengine,\s*registry\b",
     "the faults rows' reads over FaultInjector.outcomes"),
    ("Monitor(registry=)",
     r"\bMonitor\([^)]*\bregistry\b|registry: Optional\[MetricsRegistry\]",
     "the instrument list each Monitor keeps for itself"),
    # One Monitor holds the windows, as columns; a series key is built
    # once, when its series first appears, and never parsed back.
    ("MetricsRegistry", r"\bMetricsRegistry\b",
     "Monitor._instruments, filled by Monitor.attach"),
    ("Instrument", r"\bclass Instrument\b|\bInstrument\(",
     "an INSTRUMENT_CATALOGUE row, read by Monitor or fed by Monitor.fold"),
    ("PeriodicSampler", r"\bPeriodicSampler\b",
     "Monitor.fold and Monitor.finish, which close the windows"),
    ("SeriesStore", r"\bSeriesStore\b",
     "Monitor.t_start, Monitor.t_end and Monitor.columns"),
    ("WindowSnapshot", r"\bWindowSnapshot\b",
     "one index into Monitor's columns"),
    ("HealthMonitor", r"\bHealthMonitor\b",
     "Monitor.finish, which evaluates the SLO rules into Monitor.breaches"),
    ("parse_series_key", r"\bparse_series_key\b",
     "Monitor's bucket keys per histogram: nothing parses a key"),
    ("unescape_label_value", r"\bunescape_label_value\b",
     "nothing: a key is only ever written out"),
    ("monitor.store / .registry",
     r"\bmonitor\.(?:store|registry|sampler|health)\b",
     "the Monitor itself, which the exporters take"),
    # Seven CLI verbs, one per question: run attaches the observers,
    # sweep sweeps arrival rates and validate prints single series.
    ("repro trace", r'(?:add_parser|verb)\(\s*"trace"',
     "repro run W --trace PATH", "repro/cli.py"),
    ("repro monitor", r'(?:add_parser|verb)\(\s*"monitor"',
     "repro run W --monitor DIR", "repro/cli.py"),
    ("repro critpath", r'(?:add_parser|verb)\(\s*"critpath"',
     "repro run W --critpath", "repro/cli.py"),
    ("repro loadtest", r'(?:add_parser|verb)\(\s*"loadtest"',
     "repro sweep load.rate", "repro/cli.py"),
    ("repro figure", r'(?:add_parser|verb)\(\s*"figure"',
     "repro validate NAME", "repro/cli.py"),
    ("experiments.loadtest",
     r"experiments\.loadtest|experiments import [^\n]*\bloadtest\b",
     "repro.experiments.sweeps"),
    # The paper measures block latencies below the OS cache: no system
    # wraps another, so a system counts and traces only itself.
    ("repro.sim.pagecache", r"pagecache|PAGE_HIT_S",
     "nothing: a read-only DRAM level is the ROADMAP engine item"),
    ("HostCachedSystem", r"\bHostCachedSystem\b",
     "nothing: a read-only DRAM level is the ROADMAP engine item"),
    ("StorageSystem.inner_systems", r"\binner_systems\b",
     "nothing: no system wraps another"),
    ("StorageSystem.counters", r"\bdef counters\b",
     "Counted.counters, the one snapshot", "repro/baselines/"),
    ("set_tracer into wrapped systems", r"\binner\.set_tracer\b",
     "StorageSystem.set_tracer, over the system's own devices"),
    # The engine's tunables are module constants.
    ("EngineConfig", r"\bEngineConfig\b",
     "sim.engine.DEFAULT_DEVICE_SLOTS and sim.engine.BACKGROUND_QUANTUM_S"),
    ("EngineConfig.device_slots", r"\bdevice_slots\b",
     "sim.engine.DEFAULT_DEVICE_SLOTS"),
    ("EngineConfig.default_slots", r"\bdefault_slots\b",
     "DEFAULT_DEVICE_SLOTS.get(name, 1)"),
    ("EngineConfig.background_quantum_s", r"\bbackground_quantum_s\b",
     "sim.engine.BACKGROUND_QUANTUM_S"),
    ("EngineConfig.slots_for", r"\bslots_for\b",
     "DEFAULT_DEVICE_SLOTS.get(name, 1)"),
    ("EventEngine(config=)", r"\bconfig\b",
     "the module constants of sim.engine", "repro/sim/engine.py"),
    # Every system builds its devices from their standard specs.
    ("ICASHController(hdd_spec=, ssd_spec=)", r"\b(?:hdd|ssd)_spec\b",
     "HardDiskDrive's and FlashSSD's default HDDSpec() and SSDSpec()",
     "repro/core/"),
    ("LRUCacheStorage(ssd_spec=, hdd_spec=)", r"\b(?:hdd|ssd)_spec\b",
     "FlashSSD's and HardDiskDrive's default SSDSpec() and HDDSpec()",
     "repro/baselines/lru_cache.py"),
    ("DedupCacheStorage(ssd_spec=, hdd_spec=)", r"\b(?:hdd|ssd)_spec\b",
     "FlashSSD's and HardDiskDrive's default SSDSpec() and HDDSpec()",
     "repro/baselines/dedup.py"),
    ("PureSSD(ssd_spec=)", r"\bssd_spec\b",
     "FlashSSD's default SSDSpec()", "repro/baselines/pure_ssd.py"),
    ("RAID0Storage(hdd_spec=)", r"\bhdd_spec\b",
     "RAID0Array's default HDDSpec()", "repro/baselines/raid0.py"),
    # A RunSpec holds only what some caller sets.
    ("RunSpec.preload", r"\bpreload\b",
     "run_benchmark(preload=True), its default",
     "repro/experiments/parallel.py"),
    ("RunSpec.vm_scale", r"\bvm_scale\b", "parallel.VM_SCALE"),
    ("run_specs(timeout_s=)", r"\btimeout_s\b",
     "parallel.DEFAULT_TIMEOUT_S", "repro/experiments/parallel.py"),
    ("run_rate_point", r"\brun_rate_point\b",
     "sweeps.sweep_rates(spec, [rate])"),
    # Names only the tests called.
    ("Heatmap.record", r"\bdef record\b",
     "Heatmap.pending, or Heatmap.record_batch", "repro/core/heatmap.py"),
    ("Heatmap.row", r"\bdef row\b", "Heatmap.popularity_batch",
     "repro/core/heatmap.py"),
    ("Heatmap.reset", r"\bdef reset\b", "a new Heatmap",
     "repro/core/heatmap.py"),
    ("Heatmap._pending", r"\b_pending\b", "Heatmap.pending", "repro/core/"),
    ("IORequest.lbas", r"\bdef lbas\b", "range(request.lba, request.lba + "
     "request.nblocks)"),
    ("LatencyStats.min", r"\bdef min\b|\b_min\b",
     "LatencyStats.percentile(0)", "repro/sim/stats.py"),
    ("PathBreakdown.fraction", r"\bdef fraction\b",
     "PathBreakdown.shares and PathBreakdown.total"),
    ("SignatureIndex.clear", r"\bdef clear\b", "a new SignatureIndex",
     "repro/core/similarity.py"),
    # The element keeps the paper's log medium, packing order and
    # Heatmap: the delta log is an HDD region, deltas pack in arrival
    # order and the Heatmap is never aged.
    ("NVRAM / NVRAMSpec / devices.nvram",
     r"\bNVRAM(?:Spec)?\b|devices\.nvram",
     "the HDD log region DeltaLog wraps"),
    ("log_on_nvram", r"\blog_on_nvram\b",
     "nothing: the delta log is always an HDD region"),
    ("flush_order", r"\bflush_order\b",
     "the flush queue's arrival order (ICASHController._dirty_delta_lbas)"),
    ("heatmap_decay_interval / heatmap_decay_factor",
     r"\bheatmap_decay_(?:interval|factor)\b",
     "nothing: the Heatmap is never aged"),
    ("Heatmap.decay", r"\bdef decay\b|\.decay\(",
     "nothing: the Heatmap is never aged"),
    ("nvram_read / nvram_write", r"\bnvram_(?:read|write)\b",
     "nothing: no device emits them"),
    # The observer layer does each job one way: one explain module,
    # one SLO rule table, and no settable value only the tests set.
    ("significant_scalars", r"\bsignificant_scalars\b",
     "[d for d in deltas if d.significant]"),
    ("significant_attribution", r"\bsignificant_attribution\b",
     "[d for d in deltas if d.significant]"),
    ("SLORule.description", r"\bdescription\b",
     "a comment beside the rule in default_slo_rules: nothing read it",
     "repro/sim/metrics.py"),
    ("SLORule.bound", r"\.bound\b|\bbound: str",
     "SLORule.threshold, an upper bound: no rule set a floor"),
    ("EnergySpec", r"\bEnergySpec\b",
     "the module constants of repro.metrics.energy"),
    # A reference's frozen copy lives on the SSD alone: a reference
    # holds RAM data only while shadowed, and that is its own content.
    ("ram_ref_hits", r"\bram_ref_hits\b",
     "ssd_ref_reads: an associate's read always reads the frozen copy"),
    # A value no caller outside the tests sets is a constant: one
    # signature scheme, fixed fault sizes, one closed loop, the paper's
    # RAID0 and one table layout.
    ("SignatureScheme", r"\bSignatureScheme\b",
     "the sampled sub-signature, the only scheme (Section 4.2)"),
    ("ICASHConfig.signature_scheme", r"\bsignature_scheme\b",
     "block_signatures, which takes only the block"),
    ("_hash_signatures / _hash_from_bytes",
     r"_hash_signatures|_hash_from_bytes|hashlib",
     "nothing: the hash ablation is prose in core/signatures.py",
     "repro/core/"),
    ("block_signatures(scheme=)", r"\bscheme\s*[:=]",
     "block_signatures(block), block_signatures_batch(blocks) and "
     "block_signatures_many(blocks)", "repro/core/"),
    ("FaultSpec.wear_fraction", r"\bwear_fraction\b",
     "faults.WEAR_FRACTION"),
    ("FaultSpec.rebuild_blocks", r"spec\.rebuild_blocks|rebuild_blocks: "
     r"int = 4096", "faults.REBUILD_BLOCKS"),
    ("FaultSpec.corrupt_blocks", r"\bcorrupt_blocks\b",
     "faults.CORRUPT_BLOCKS"),
    ("FaultSpec.corruption_target", r"\bcorruption_target\b",
     "the signed references, the one target a scrub can check"),
    ("_CORRUPTION_TARGETS", r"_CORRUPTION_TARGETS",
     "the signed references, the one target a scrub can check"),
    ("_corrupt_spill / _corrupt_log", r"_corrupt_spill|_corrupt_log",
     "FaultInjector._inject_silent_corruption; the spill gap and the "
     "torn-log replay are tested directly"),
    ("FaultPlan.single(**knobs)", r"\*\*knobs",
     "FaultPlan.single(kind, at_request, seed)", "repro/sim/faults.py"),
    ("ClosedLoopLoad(distribution=, seed=)",
     r"exponential\(self\.think_s|think distribution",
     "ClosedLoopLoad(clients, think_s), a constant think",
     "repro/sim/load.py"),
    ("RAID0Array(ndisks=) / RAID0Storage(ndisks=)", r"\bndisks\b",
     "raid.NDISKS"),
    ("RAID0Array(chunk_blocks=) / RAID0Storage(chunk_blocks=)",
     r"\bchunk_blocks\b", "raid.CHUNK_BLOCKS"),
    ("RAID0Array(hdd_spec=)", r"\bhdd_spec\b",
     "HardDiskDrive's default HDDSpec()", "repro/devices/raid.py"),
    ("HardDiskDrive(spec=)", r"def __init__\(self[^)]*\bspec\b",
     "HDDSpec(), which every HardDiskDrive is built from",
     "repro/devices/hdd.py"),
    ("SyntheticWorkload(hot_fraction=)", r"\bhot_fraction\b",
     "workloads.base.HOT_FRACTION"),
    ("SyntheticWorkload(hot_access_prob=)", r"\bhot_access_prob\b",
     "workloads.base.HOT_ACCESS_PROB"),
    ("SyntheticWorkload(max_request_blocks=)", r"\bmax_request_blocks\b",
     "workloads.base.MAX_REQUEST_BLOCKS"),
    ("DRAMBuffer(capacity_bytes=)", r"\bcapacity_bytes\b",
     "nothing: no code read it", "repro/devices/dram.py"),
    ("comparison_table(precision=)", r"\bprecision\b",
     "two decimals, the precision every figure printed",
     "repro/experiments/report.py"),
    ("comparison_table(paper=None)", r"if paper:|Optional\[Dict",
     "the paper column every figure has", "repro/experiments/report.py"),
    ("comparison_table(unit=, better=) defaults",
     r'unit: str = ""|better: str = "higher"',
     "FigureResult.metric and FigureResult.better, always passed",
     "repro/experiments/report.py"),
    ("normalize(baseline=)", r"\bbaseline: str",
     "fusion-io, the system Figures 15 and 16 normalise to",
     "repro/experiments/report.py"),
    ("render_sweep(metrics=)", r"\bmetrics: Sequence",
     "sweeps.SWEEP_METRICS", "repro/experiments/sweeps.py"),
    ("compare_at_knee(system_names=)", r"\bsystem_names\b",
     "systems.SYSTEM_NAMES", "repro/experiments/sweeps.py"),
    ("compare_at_knee(progress=)", r"\bprogress: bool",
     "the two stderr lines every call prints",
     "repro/experiments/sweeps.py"),
    ("within_paper_band(low=, high=)", r"within_paper_band\(self, low",
     "the paper's 5-20 % band", "repro/analysis/locality.py"),
)

#: The emission protocol model code calls.
PROTOCOL = ("device_span", "begin_background", "push_name_scope")


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


def test_one_class_implements_the_emission_protocol(sources):
    """A second implementation is how two observers came to disagree."""
    implementers = {
        f"{name}:{node.name}"
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
        and {sub.name for sub in node.body
             if isinstance(sub, ast.FunctionDef)} & set(PROTOCOL)}
    assert implementers == {"repro/sim/trace.py:Recorder"}


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
