"""Command-line interface.

Everything the experiment harness can do, runnable without writing
Python::

    python -m repro figure figure6a           # one paper figure
    python -m repro figure all                # every figure (long)
    python -m repro analyze sysbench          # Table 4 row + locality
    python -m repro sweep scan_interval 250 500 1000 2000
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments import figures as figures_module
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import record_run, run_benchmark
from repro.experiments.sweeps import render_sweep, sweep_config
from repro.workloads import WORKLOADS

#: Which document explains each subcommand.  Every subcommand's help
#: string names its entry here (the CLI help test audits the mapping),
#: so ``repro --help`` always points at the right doc.
COMMAND_DOCS = {
    "figure": "EXPERIMENTS.md",
    "sweep": "docs/TUNING.md",
    "validate": "EXPERIMENTS.md",
    "analyze": "docs/MODELING.md",
    "run": "docs/ARCHITECTURE.md",
    "trace": "docs/OBSERVABILITY.md",
    "monitor": "docs/OBSERVABILITY.md",
    "loadtest": "docs/ARCHITECTURE.md",
    "critpath": "docs/OBSERVABILITY.md",
    "chaos": "docs/RELIABILITY.md",
    "ledger": "docs/LEDGER.md",
    "explain": "docs/OBSERVABILITY.md",
}

#: ``repro ledger`` subcommands (doc-parity tested against the table
#: in docs/LEDGER.md).
LEDGER_SUBCOMMANDS = ("list", "show", "trend", "verify", "prune",
                      "export")


def _add_no_ledger(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip recording this invocation in the "
                             "persistent run ledger (docs/LEDGER.md); "
                             "REPRO_LEDGER=0 does the same globally")


def _positive_seconds(text: str) -> float:
    """A positive, finite ``--interval`` (NaN and infinity are not)."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"not a positive, finite number of seconds: {text!r}")
    return value


def _window_capacity(text: str) -> int:
    """A ``--max-windows`` that holds a merged pair: at least two."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"not a whole number of windows, at least 2: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="I-CASH (HPCA 2011) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure",
                            help="regenerate one paper figure (or 'all') "
                                 f"(see {COMMAND_DOCS['figure']})")
    figure.add_argument("name", help="one of "
                        f"{', '.join(figures_module.ALL_FIGURES)}, "
                        "or 'all'")
    figure.add_argument("--requests", type=int, default=None,
                        help="requests per benchmark run "
                             "(default: harness default)")
    figure.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the grid runs behind "
                             "the figures (results are identical at any "
                             "job count)")
    _add_no_ledger(figure)

    sweep = sub.add_parser("sweep",
                           help="sweep one ICASHConfig field on SysBench "
                                f"(see {COMMAND_DOCS['sweep']})")
    sweep.add_argument("parameter",
                       help="ICASHConfig field, e.g. scan_interval")
    sweep.add_argument("values", nargs="+",
                       help="values to sweep (parsed as int when "
                            "possible)")
    sweep.add_argument("--requests", type=int, default=6000)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes, one sweep point each "
                            "(results are identical at any job count)")
    _add_no_ledger(sweep)

    validate = sub.add_parser(
        "validate", help="run every paper series, hold each shape score "
                         "to its floor and check the headline claims; "
                         "exit 1 on a miss "
                         f"(see {COMMAND_DOCS['validate']})")
    validate.add_argument("--requests", type=int, default=None)

    analyze = sub.add_parser(
        "analyze", help="measure a workload's Table 4 profile and "
                        "content locality (the paper's Section 2.2 "
                        "claims; see "
                        f"{COMMAND_DOCS['analyze']})")
    analyze.add_argument("workload", choices=sorted(WORKLOADS))
    analyze.add_argument("--requests", type=int, default=2000)

    run = sub.add_parser(
        "run", help="run one workload on one architecture and print the "
                    "full diagnosis (result, element status, path "
                    f"breakdowns) (see {COMMAND_DOCS['run']})")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--system", default="icash",
                     choices=["fusion-io", "raid0", "dedup", "lru",
                              "icash"])
    run.add_argument("--requests", type=int, default=6000)
    run.add_argument("--verify", action="store_true",
                     help="verify every read against the shadow copy")
    _add_no_ledger(run)

    trace = sub.add_parser(
        "trace", help="run one workload under the tracer and write a "
                      "per-request trace file (see docs/OBSERVABILITY.md)")
    trace.add_argument("--workload", default="sysbench",
                       choices=sorted(WORKLOADS))
    trace.add_argument("--system", default="icash",
                       choices=["fusion-io", "raid0", "dedup", "lru",
                                "icash"])
    trace.add_argument("--requests", type=int, default=3000)
    trace.add_argument("--out", default="trace.json",
                       help="output path; .jsonl writes JSON Lines, "
                            "anything else writes Chrome trace_event "
                            "JSON for chrome://tracing / Perfetto")
    trace.add_argument("--buffer", type=int, default=1 << 20,
                       help="ring buffer capacity in events (oldest "
                            "events drop beyond this)")

    monitor = sub.add_parser(
        "monitor", help="run one workload under the windowed metrics "
                        "sampler; write CSV/JSONL/Prometheus series and "
                        "print a per-window report "
                        "(see docs/OBSERVABILITY.md)")
    monitor.add_argument("--workload", default="sysbench",
                         choices=sorted(WORKLOADS))
    monitor.add_argument("--system", default="icash",
                         choices=["fusion-io", "raid0", "dedup", "lru",
                                  "icash"])
    monitor.add_argument("--requests", type=int, default=3000)
    monitor.add_argument("--interval", type=_positive_seconds,
                         default=0.01,
                         help="sample window width in seconds of "
                              "aggregate device busy time")
    monitor.add_argument("--out-dir", default=".",
                         help="directory for series.csv, series.jsonl "
                              "and metrics.prom")
    monitor.add_argument("--max-windows", type=_window_capacity,
                         default=256,
                         help="series store capacity; beyond it adjacent "
                              "windows merge (downsampling)")
    monitor.add_argument("--json", action="store_true",
                         help="emit the per-window report, SLO "
                              "breaches and consistency verdict as one "
                              "JSON document on stdout instead of the "
                              "ASCII report (exports still written)")
    _add_no_ledger(monitor)

    loadtest = sub.add_parser(
        "loadtest", help="sweep open-loop arrival rate through the "
                         "discrete-event engine to locate the "
                         "saturation knee (throughput/latency curve, "
                         f"CSV + ASCII) (see {COMMAND_DOCS['loadtest']})")
    loadtest.add_argument("--workload", default="sysbench",
                          choices=sorted(WORKLOADS))
    loadtest.add_argument("--system", default="icash",
                          choices=["fusion-io", "raid0", "dedup", "lru",
                                   "icash"])
    loadtest.add_argument("--requests", type=int, default=3000)
    loadtest.add_argument("--points", type=int, default=6,
                          help="sweep points between --span fractions "
                               "of the calibrated capacity")
    loadtest.add_argument("--span", type=float, nargs=2,
                          default=None, metavar=("LO", "HI"),
                          help="sweep span as fractions of capacity "
                               "(default 0.3 1.6)")
    loadtest.add_argument("--rates", type=float, nargs="+", default=None,
                          help="explicit offered rates (requests/s); "
                               "skips capacity calibration")
    loadtest.add_argument("--distribution", default="poisson",
                          choices=["poisson", "constant"],
                          help="interarrival distribution")
    loadtest.add_argument("--seed", type=int, default=1234,
                          help="arrival-pattern seed (shared across "
                               "sweep points)")
    loadtest.add_argument("--csv", default=None,
                          help="also write the curve as CSV rows")
    loadtest.add_argument("--compare", action="store_true",
                          help="instead of a sweep, compare every "
                               "architecture at its own knee")
    loadtest.add_argument("--jobs", type=int, default=1,
                          help="worker processes across rate points / "
                               "architectures (results are identical "
                               "at any job count)")
    _add_no_ledger(loadtest)

    critpath = sub.add_parser(
        "critpath", help="run one workload under the simulated-time "
                         "profiler and print the critical-path "
                         "attribution table with a blame summary "
                         "(see docs/OBSERVABILITY.md)")
    critpath.add_argument("--workload", default="sysbench",
                          choices=sorted(WORKLOADS))
    critpath.add_argument("--system", default="icash",
                          choices=["fusion-io", "raid0", "dedup", "lru",
                                   "icash"])
    critpath.add_argument("--requests", type=int, default=3000)
    critpath.add_argument("--engine", default="event",
                          choices=["legacy", "event"],
                          help="wall-clock model; 'event' includes "
                               "per-station queue waits")
    critpath.add_argument("--rate", type=float, default=None,
                          help="open-loop arrival rate (requests/s); "
                               "default is the workload's closed loop. "
                               "Only meaningful with --engine event")
    critpath.add_argument("--seed", type=int, default=1234,
                          help="arrival-pattern seed for --rate")
    critpath.add_argument("--folded", default=None, metavar="PATH",
                          help="also write folded flame stacks "
                               "('op;device;phase count_us' lines) for "
                               "flamegraph tooling")
    critpath.add_argument("--json", action="store_true",
                          help="emit the attribution table, blame and "
                               "consistency verdicts as one JSON "
                               "document on stdout (machine-readable "
                               "form for tooling and CI)")

    chaos = sub.add_parser(
        "chaos", help="run the fault-injection scenario matrix against "
                      "the I-CASH element and judge every cell against "
                      "its SLO breach budget; exit 1 on any FAIL "
                      f"(see {COMMAND_DOCS['chaos']})")
    chaos.add_argument("--quick", action="store_true",
                       help="one scenario per fault class (the CI "
                            "smoke set) instead of the full matrix")
    chaos.add_argument("--requests", type=int, default=2000,
                       help="requests per scenario run; the fault "
                            "fires at the halfway admission")
    chaos.add_argument("--seed", type=int, default=1234,
                       help="fault and arrival seed — same seed, "
                            "same verdicts, byte-identical JSONL")
    chaos.add_argument("--scenario", nargs="+", default=None,
                       metavar="ID",
                       help="run only these scenario IDs "
                            "(e.g. wearout-sysbench hddfail-tpcc)")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="also write the verdicts as JSONL "
                            "(one meta line + one line per scenario)")
    _add_no_ledger(chaos)

    ledger = sub.add_parser(
        "ledger", help="inspect the persistent run ledger: list, "
                       "show, sparkline trends with anomaly detection, "
                       "integrity verify, retention prune and JSONL "
                       "export; 'repro explain A B' compares two rows "
                       f"(see {COMMAND_DOCS['ledger']})")
    lsub = ledger.add_subparsers(dest="ledger_command", required=True)

    def _ledger_sub(name: str, help_text: str):
        sub_parser = lsub.add_parser(name, help=help_text)
        sub_parser.add_argument("--dir", default=None,
                                help="ledger directory (default: "
                                     "REPRO_LEDGER_DIR or "
                                     ".repro-ledger)")
        return sub_parser

    l_list = _ledger_sub("list", "newest recorded runs")
    l_list.add_argument("--last", type=int, default=20,
                        help="show at most this many newest rows")
    l_list.add_argument("--filter", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="restrict to matching rows (command/"
                             "workload/system/engine/seed); repeatable")
    l_show = _ledger_sub("show", "one full row as JSON")
    l_show.add_argument("ref", help="seq number or run-id prefix")
    l_trend = _ledger_sub("trend", "sparkline history of one metric "
                                   "with rolling-window anomaly "
                                   "detection")
    l_trend.add_argument("metric",
                         help="scalar name (e.g. read_p99_us), "
                              "counters.<name>, or slo.breaches")
    l_trend.add_argument("--filter", action="append", default=None,
                         metavar="KEY=VALUE",
                         help="restrict to matching rows; repeatable")
    l_trend.add_argument("--last", type=int, default=50,
                         help="trend over at most this many newest "
                              "matching rows")
    l_trend.add_argument("--window", type=int, default=None,
                         help="rolling history window per point "
                              "(default: 8)")
    _ledger_sub("verify", "integrity check: schema versions, content-"
                          "hash run ids, a torn final line; exit 1 on "
                          "any issue")
    l_prune = _ledger_sub("prune", "drop all but the newest N rows "
                                   "(the store is rewritten whole)")
    l_prune.add_argument("--keep", type=int, required=True,
                         help="rows to retain")
    l_export = _ledger_sub("export", "copy every row to a JSONL file")
    l_export.add_argument("--out", required=True,
                          help="file to write")
    l_export.add_argument("--canonical", action="store_true",
                          help="drop the volatile sub-object (byte-"
                               "identical across hosts and job "
                               "counts)")

    explain = sub.add_parser(
        "explain", help="differential diagnosis of two runs: noise-"
                        "aware metric and attribution diffs, a ranked "
                        "root-cause suspect list, and a flame-diff "
                        "export; inputs are two ledger refs "
                        f"(see {COMMAND_DOCS['explain']})")
    explain.add_argument("a", help="baseline: a ledger seq/run-id prefix")
    explain.add_argument("b", help="candidate: a ledger seq/run-id prefix")
    explain.add_argument("--dir", default=None,
                         help="ledger directory (default: "
                              "REPRO_LEDGER_DIR or .repro-ledger)")
    explain.add_argument("--json", action="store_true",
                         help="emit the machine-readable report "
                              "instead of the rendered text")
    explain.add_argument("--flame-diff", default=None, metavar="PATH",
                         help="also write the two-column folded flame "
                              "diff ('op;device;phase a_us b_us') for "
                              "flamegraph.pl --negate / speedscope")
    return parser


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _ledger_note(ledger) -> None:
    """One closing line saying where the run(s) were recorded."""
    if ledger is not None and ledger.recorded:
        noun = "run" if ledger.recorded == 1 else "runs"
        print(f"ledger: recorded {ledger.recorded} {noun} -> "
              f"{ledger.root} (inspect with 'repro ledger list')")


def _build_run(workload_name: str, system_name: str, requests: int,
               **spec_fields):
    """A single-run verb's spec and the live workload and system built
    from it (the verbs attach observers no worker could be sent)."""
    spec = RunSpec(workload=workload_name, system=system_name,
                   n_requests=requests, **spec_fields)
    workload = spec.build_workload()
    return spec, workload, spec.build_system(workload)


def _cmd_figure(name: str, requests: Optional[int],
                jobs: int = 1, ledger=None) -> int:
    names = (list(figures_module.ALL_FIGURES)
             if name == "all" else [name])
    unknown = [n for n in names if n not in figures_module.ALL_FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)} — one of "
              f"{', '.join(figures_module.ALL_FIGURES)}, or 'all'",
              file=sys.stderr)
        return 2

    if jobs > 1:
        # Fan the grid cells behind the requested figures out across
        # workers; the figure functions below then hit the cache.
        n_requests = (figures_module.DEFAULT_REQUESTS if requests is None
                      else requests)
        figures_module.prewarm(names, n_requests=n_requests, jobs=jobs)
    for fig_name in names:
        result = figures_module.run_figure(fig_name, requests)
        figures_module.record_figure(ledger, result)
        print(result.render())
        print()
    _ledger_note(ledger)
    return 0


def _cmd_sweep(parameter: str, raw_values: List[str],
               requests: int, jobs: int = 1, ledger=None) -> int:
    values = [_parse_value(v) for v in raw_values]
    try:
        points = sweep_config(
            RunSpec(workload="sysbench", n_requests=requests,
                    warmup_fraction=0.4),
            parameter, values, jobs=jobs, ledger=ledger)
    except TypeError as error:
        print(f"bad parameter {parameter!r}: {error}", file=sys.stderr)
        return 2
    print(render_sweep(points))
    _ledger_note(ledger)
    return 0


def _cmd_validate(requests: Optional[int]) -> int:
    from repro.experiments.validate import validate

    summary = validate(n_requests=requests)
    print(summary.render())
    return 0 if summary.passed else 1


def _cmd_analyze(workload_name: str, requests: int) -> int:
    from repro.analysis import analyze_dataset, analyze_writes

    cls = WORKLOADS[workload_name]
    workload = cls(scale=0.25, n_requests=requests)
    print("measured:", workload.measured_profile().format_row())
    print("paper:   ", cls.paper_profile.format_row())
    dataset = workload.build_dataset()
    locality = analyze_dataset(dataset, sample=min(2000,
                                                   workload.n_blocks))
    print(f"{workload_name} initial data set:")
    print(f"  {locality.summary()}")
    writes = analyze_writes(dataset, workload.requests())
    print(f"{workload_name} write stream:")
    print(f"  {writes.summary()}")
    return 0


def _cmd_run(workload_name: str, system_name: str, requests: int,
             verify: bool, ledger=None) -> int:
    spec, workload, system = _build_run(workload_name, system_name,
                                        requests)
    result = run_benchmark(workload, system, verify_reads=verify)
    record_run(ledger, result, "run", spec)
    print(f"{workload_name} on {system_name}: "
          f"{result.transactions_per_s:.1f} tx/s, "
          f"read {result.read_mean_us:.1f} us "
          f"(p99 {result.read_p99_us:.1f}), "
          f"write {result.write_mean_us:.1f} us, "
          f"cpu {result.cpu_utilization:.0%}, "
          f"runtime SSD writes {result.ssd_write_ops}")
    if verify:
        print(f"reads verified byte-exact: {result.verified_reads}")
    if system_name == "icash":
        from repro.experiments.breakdown import (read_breakdown,
                                                 semiconductor_fraction,
                                                 write_breakdown)
        print()
        print(system.describe())
        print()
        print(read_breakdown(system).render())
        print()
        print(write_breakdown(system).render())
        print(f"\nreads served without mechanical I/O: "
              f"{semiconductor_fraction(system):.1%}")
    _ledger_note(ledger)
    return 0


def _cmd_trace(workload_name: str, system_name: str, requests: int,
               out: str, buffer_events: int) -> int:
    from repro.sim.profile import Profiler
    from repro.sim.trace import (RingBufferTracer, export_chrome_trace,
                                 export_jsonl)

    _, workload, system = _build_run(workload_name, system_name, requests)
    tracer = RingBufferTracer(capacity_events=buffer_events)
    profiler = Profiler()
    # No warm-up cut: the table and the run's means cover every request
    # the ring holds.
    result = run_benchmark(workload, system, tracer=tracer,
                           profiler=profiler, warmup_fraction=0.0)
    if out.endswith(".jsonl"):
        written = export_jsonl(tracer.events, out, tracer=tracer)
        kind = "JSONL"
    else:
        written = export_chrome_trace(tracer.events, out, tracer=tracer)
        kind = "Chrome trace_event; open in chrome://tracing or " \
               "https://ui.perfetto.dev"
    print(f"{workload_name} on {system_name}: wrote {written} events "
          f"to {out} ({kind})")
    print(f"events recorded: {len(tracer.events)}, "
          f"dropped: {tracer.dropped}")
    if tracer.dropped:
        print(f"warning: ring buffer overflowed; the {tracer.dropped} "
              f"oldest events were dropped — the trace file covers "
              f"only the surviving tail. Raise --buffer for a complete "
              f"trace.", file=sys.stderr)
    print()
    print(profiler.table.render())
    # Cross-check the trace against the run's own measurement: the
    # ring's read spans must reproduce the measured read mean, within
    # critpath's tolerance.  A ring that dropped events covers only the
    # tail (warned above), so then there is nothing to judge.
    stats_mean = result.read_mean_us
    reads = [event.dur for event in tracer.events
             if event.name == "request_start" and event.outcome == "read"]
    trace_mean = sum(reads) / len(reads) * 1e6 if reads else 0.0
    print(f"\nconsistency: trace read mean {trace_mean:.2f} us vs "
          f"stats read mean {stats_mean:.2f} us")
    if not tracer.dropped and \
            abs(trace_mean - stats_mean) > 1e-6 * max(1.0, stats_mean):
        print("warning: the trace's read mean disagrees with the run's "
              "measured read mean", file=sys.stderr)
        return 1
    return 0


def _cmd_monitor(workload_name: str, system_name: str, requests: int,
                 interval_s: float, out_dir: str,
                 max_windows: int, ledger=None,
                 as_json: bool = False) -> int:
    import json
    import os

    from repro.sim.metrics import (Monitor, export_prometheus,
                                   export_series_csv, export_series_jsonl)

    spec, workload, system = _build_run(workload_name, system_name,
                                        requests)
    monitor = Monitor(interval_s=interval_s, max_windows=max_windows)
    result = run_benchmark(workload, system, monitor=monitor)
    record_run(ledger, result, "monitor", spec,
               extra={"interval_s": interval_s})

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "series.csv")
    jsonl_path = os.path.join(out_dir, "series.jsonl")
    prom_path = os.path.join(out_dir, "metrics.prom")
    rows = export_series_csv(monitor, csv_path)
    export_series_jsonl(monitor, jsonl_path)
    samples = export_prometheus(monitor, prom_path)

    # Cross-check the windowed series against the stream itself: summed
    # window deltas must reproduce the stream's read and write counts
    # (the tracer's consistency check, for metrics).
    reads = [request.is_read for request in workload.requests()]
    stats_reads = sum(reads)
    stats_writes = len(reads) - stats_reads
    series_reads = monitor.counter_total("requests_read_total")
    series_writes = monitor.counter_total("requests_write_total")
    consistent = (series_reads, series_writes) == (stats_reads,
                                                   stats_writes)
    if as_json:
        doc = {
            "workload": workload_name,
            "system": system_name,
            "interval_s": interval_s,
            "downsample_factor": monitor.downsample_factor,
            "windows": [monitor.window_record(index)
                        for index in range(len(monitor.t_end))],
            "slo_breaches": [
                {"rule": breach.rule.name, "window": breach.window,
                 "t_start_s": breach.t_start, "t_end_s": breach.t_end,
                 "value": breach.value,
                 "threshold": breach.rule.threshold}
                for breach in monitor.breaches],
            "exports": {"csv": csv_path, "jsonl": jsonl_path,
                        "prometheus": prom_path},
            "consistency": {
                "series_reads": series_reads,
                "stats_reads": stats_reads,
                "series_writes": series_writes,
                "stats_writes": stats_writes,
                "ok": consistent},
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"{workload_name} on {system_name}: {rows} sample "
              f"windows -> {csv_path}, {jsonl_path}; {samples} final "
              f"samples -> {prom_path}")
        print()
        print(monitor.render_report())
        print(f"\nconsistency: series reads {series_reads:.0f} vs "
              f"stats {stats_reads}, series writes "
              f"{series_writes:.0f} vs stats {stats_writes}")
    if not consistent:
        print("warning: windowed series disagree with run-end "
              "statistics", file=sys.stderr)
        return 1
    if not as_json:
        _ledger_note(ledger)
    return 0


def _cmd_loadtest(workload_name: str, system_name: str, requests: int,
                  points: int, span: Optional[List[float]],
                  rates: Optional[List[float]], distribution: str,
                  seed: int, csv_path: Optional[str],
                  compare: bool, jobs: int = 1, ledger=None) -> int:
    from repro.experiments import loadtest

    spec = RunSpec(workload=workload_name, system=system_name,
                   n_requests=requests)

    if compare:
        print(f"comparing architectures at their saturation knees "
              f"({workload_name}, {requests} requests/run)...")
        reports = loadtest.compare_at_knee(
            spec, distribution=distribution, seed=seed,
            progress=True, jobs=jobs, ledger=ledger)
        print(loadtest.render_comparison(reports))
        _ledger_note(ledger)
        return 0

    if rates is not None:
        sweep = sorted(rates)
        print(f"{workload_name} on {system_name}: sweeping "
              f"{len(sweep)} explicit rates ({distribution} arrivals)")
    else:
        capacity = loadtest.calibrate_capacity(spec, ledger=ledger)
        span_t = tuple(span) if span is not None \
            else loadtest.DEFAULT_SPAN
        sweep = loadtest.auto_rates(capacity, points, span=span_t)
        print(f"{workload_name} on {system_name}: calibrated capacity "
              f"{capacity:.0f} requests/s; sweeping {len(sweep)} rates "
              f"across {span_t[0]:.1f}-{span_t[1]:.1f}x "
              f"({distribution} arrivals)")
    curve = loadtest.sweep_rates(spec, sweep, distribution=distribution,
                                 seed=seed, jobs=jobs, ledger=ledger)
    print()
    print(loadtest.render_curve(curve))
    if csv_path is not None:
        rows = loadtest.export_curve_csv(curve, csv_path)
        print(f"\nwrote {rows} sweep rows to {csv_path}")
    _ledger_note(ledger)
    return 0


def _cmd_critpath(workload_name: str, system_name: str, requests: int,
                  engine: str, rate: Optional[float], seed: int,
                  folded: Optional[str],
                  as_json: bool = False) -> int:
    import json

    from repro.sim.profile import Profiler, export_folded
    from repro.sim.trace import RingBufferTracer

    spec, workload, system = _build_run(
        workload_name, system_name, requests, engine=engine,
        load=None if rate is None else ("open", rate, "poisson", seed))
    profiler = Profiler()
    tracer = RingBufferTracer() if folded is not None else None
    result = run_benchmark(workload, system, engine=engine,
                           load=spec.build_load(),
                           profiler=profiler, tracer=tracer)
    table = profiler.table
    if not as_json:
        loaded = f" at {rate:.0f} req/s" if rate is not None else ""
        print(f"{workload_name} on {system_name} "
              f"({engine} engine{loaded}), "
              f"{table.latency('read').count + table.latency('write').count} "
              f"measured requests:")
        print()
        print(table.render())
        print()
    # Cross-check attribution against the independent latency
    # statistics: the class's rows — what the table shows — must add
    # up to the run's measured per-class mean (docs/OBSERVABILITY.md).
    # Rows carrying time no request's latency contains do not, and
    # then their sum is the number reported beside the run mean.
    checks = (("read", result.read_mean_us),
              ("write", result.write_mean_us))
    consistent = True
    consistency = []
    for op, stats_mean in checks:
        tolerance = 1e-6 * max(1.0, stats_mean)
        table_mean = table.mean_us(op)
        rows_mean = sum(table.row_mean_us(row) for row in table.rows(op))
        if abs(rows_mean - table_mean) > tolerance:
            table_mean = rows_mean
        ok = abs(table_mean - stats_mean) <= tolerance
        consistent = consistent and ok
        consistency.append({"op": op, "attribution_mean_us": table_mean,
                            "run_mean_us": stats_mean, "ok": ok})
        if not as_json:
            print(f"consistency: attribution {op} mean "
                  f"{table_mean:.2f} us vs run {op} mean "
                  f"{stats_mean:.2f} us [{'ok' if ok else 'MISMATCH'}]")
    folded_lines = None
    if folded is not None:
        folded_lines = export_folded(table, tracer.events, folded)
        if not as_json:
            print(f"\nwrote {folded_lines} folded stacks to {folded} "
                  f"(flamegraph.pl / speedscope 'folded' format)")
        if tracer.dropped:
            print(f"warning: ring buffer dropped {tracer.dropped} "
                  f"events; folded background and run stacks cover the "
                  f"surviving tail", file=sys.stderr)
    if as_json:
        blames = {}
        for op in table.ops:
            blame = table.blame(op)
            blames[op] = None if blame is None else {
                "device": blame.device, "phase": blame.phase,
                "share": blame.share, "tail_n": blame.tail_n,
                "threshold_us": blame.threshold_us}
        doc = {
            "workload": workload_name,
            "system": system_name,
            "engine": engine,
            "rate": rate,
            "classes": {
                op: {"n": table.n_requests(op),
                     "mean_us": table.mean_us(op),
                     "p99_us": table.latency(op).percentile(99) * 1e6}
                for op in table.ops},
            "attribution": table.to_rows(),
            "blame": blames,
            "queueing": result.queueing.to_doc()
            if result.queueing is not None else None,
            "consistency": consistency,
            "consistent": consistent,
            "folded": None if folded is None
            else {"path": folded, "lines": folded_lines},
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0 if consistent else 1


def _cmd_chaos(quick: bool, requests: int, seed: int,
               scenario_ids: Optional[List[str]],
               out: Optional[str], ledger=None) -> int:
    from repro.experiments import chaos

    scenarios = chaos.quick_scenarios() if quick else chaos.SCENARIOS
    if scenario_ids is not None:
        by_id = {s.scenario_id: s for s in chaos.SCENARIOS}
        unknown = [sid for sid in scenario_ids if sid not in by_id]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)} — known: "
                  f"{', '.join(sorted(by_id))}", file=sys.stderr)
            return 2
        scenarios = tuple(by_id[sid] for sid in scenario_ids)
    report = chaos.run_matrix(
        scenarios, seed=seed, n_requests=requests,
        progress=lambda msg: print(msg, file=sys.stderr),
        ledger=ledger)
    print(report.render())
    if out is not None:
        lines = chaos.export_chaos_jsonl(report, out)
        print(f"wrote {lines} JSONL lines to {out}")
    _ledger_note(ledger)
    return 0 if report.all_passed else 1


def _open_ledger(directory: Optional[str]):
    """The store under ``directory`` (default: REPRO_LEDGER_DIR or
    .repro-ledger), or None after saying on stderr that there is none."""
    import os

    from repro import ledger as ledger_module

    root = directory or ledger_module.default_root()
    path = os.path.join(root, ledger_module.EXPORT_NAME)
    if not os.path.exists(path):
        print(f"no ledger at {path} — any recorded invocation "
              f"(e.g. 'repro run sysbench') creates one",
              file=sys.stderr)
        return None
    return ledger_module.LedgerWriter(root)


def _cmd_ledger(args) -> int:
    from repro import ledger as ledger_module

    store = _open_ledger(args.dir)
    if store is None:
        return 2
    try:
        if args.ledger_command == "list":
            filters = ledger_module.parse_filters(args.filter)
            rows = store.rows(filters or None, last=args.last)
            print(ledger_module.render_rows(rows))
            return 0
        if args.ledger_command == "show":
            print(ledger_module.render_row(store.get(args.ref)))
            return 0
        if args.ledger_command == "trend":
            filters = ledger_module.parse_filters(args.filter)
            kwargs = ({} if args.window is None
                      else {"window": args.window})
            report = store.trend(args.metric, filters or None,
                                 last=args.last, **kwargs)
            print(report.render())
            return 0
        if args.ledger_command == "verify":
            issues = store.verify()
            for issue in issues:
                print(f"FAIL: {issue}", file=sys.stderr)
            if issues:
                return 1
            print(f"ok: {store.count()} row(s), every run id matches "
                  f"its content")
            return 0
        if args.ledger_command == "prune":
            removed = store.prune(args.keep)
            print(f"pruned {removed} row(s); {store.count()} remain")
            return 0
        if args.ledger_command == "export":
            count = store.export(args.out, canonical=args.canonical)
            form = " (canonical)" if args.canonical else ""
            print(f"wrote {count} row(s) to {args.out}{form}")
            return 0
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2
    raise AssertionError(
        f"unhandled ledger subcommand {args.ledger_command}")


def _cmd_explain(args) -> int:
    from repro.analysis.explain import (explain_ledger_rows,
                                        export_flame_diff)

    store = _open_ledger(args.dir)
    if store is None:
        return 2
    try:
        report = explain_ledger_rows(store.get(args.a), store.get(args.b))
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2
    print(report.render_json() if args.json else report.render())
    if args.flame_diff is not None:
        lines = export_flame_diff(
            report.row_a.metrics.get("attribution", []),
            report.row_b.metrics.get("attribution", []), args.flame_diff)
        print(f"wrote {lines} flame-diff line(s) to {args.flame_diff}",
              file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    # Scope the persistent worker pool to this invocation: whatever
    # path we exit through (success, error, KeyboardInterrupt), no
    # worker outlives main().
    from repro.experiments.parallel import parallel_session

    with parallel_session():
        return _dispatch(_build_parser().parse_args(argv))


def _dispatch(args) -> int:
    ledger = None
    if hasattr(args, "no_ledger"):
        from repro.ledger import default_ledger

        ledger = default_ledger(args.no_ledger)
    if args.command == "figure":
        return _cmd_figure(args.name, args.requests, args.jobs,
                           ledger=ledger)
    if args.command == "sweep":
        return _cmd_sweep(args.parameter, args.values, args.requests,
                          args.jobs, ledger=ledger)
    if args.command == "validate":
        return _cmd_validate(args.requests)
    if args.command == "analyze":
        return _cmd_analyze(args.workload, args.requests)
    if args.command == "run":
        return _cmd_run(args.workload, args.system, args.requests,
                        args.verify, ledger=ledger)
    if args.command == "trace":
        return _cmd_trace(args.workload, args.system, args.requests,
                          args.out, args.buffer)
    if args.command == "monitor":
        return _cmd_monitor(args.workload, args.system, args.requests,
                            args.interval, args.out_dir,
                            args.max_windows, ledger=ledger,
                            as_json=args.json)
    if args.command == "loadtest":
        return _cmd_loadtest(args.workload, args.system, args.requests,
                             args.points, args.span, args.rates,
                             args.distribution, args.seed, args.csv,
                             args.compare, args.jobs, ledger=ledger)
    if args.command == "critpath":
        return _cmd_critpath(args.workload, args.system, args.requests,
                             args.engine, args.rate, args.seed,
                             args.folded, as_json=args.json)
    if args.command == "chaos":
        return _cmd_chaos(args.quick, args.requests, args.seed,
                          args.scenario, args.out, ledger=ledger)
    if args.command == "ledger":
        return _cmd_ledger(args)
    if args.command == "explain":
        return _cmd_explain(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
