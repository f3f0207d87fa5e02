"""Command-line interface.

Seven verbs, one per question the evaluation asks::

    python -m repro run sysbench              # one element on one workload
    python -m repro run sysbench --critpath   # ... with an observer attached
    python -m repro sweep scan_interval 250 500 1000 2000
    python -m repro sweep load.rate --workload tpcc    # the saturation knee
    python -m repro validate                  # every series and claim
    python -m repro validate figure6a         # one paper series
    python -m repro analyze sysbench          # Table 4 row + locality

``chaos`` judges the fault matrix, ``ledger`` reads the run ledger and
``explain`` compares two of its rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.experiments import figures as figures_module
from repro.experiments import sweeps
from repro.experiments import validate as validate_module
from repro.experiments.parallel import RunSpec, parallel_session
from repro.experiments.runner import record_run, run_benchmark
from repro.experiments.systems import SYSTEM_NAMES
from repro import ledger as ledger_module
from repro.ledger import default_ledger
from repro.sim.metrics import (Monitor, export_prometheus,
                               export_series_csv, export_series_jsonl)
from repro.sim.profile import Profiler, export_folded
from repro.sim.trace import (RingBufferTracer, export_chrome_trace,
                             export_jsonl)
from repro.workloads import WORKLOADS

#: Which document explains each subcommand.  Every subcommand's help
#: string names its entry here (the CLI help test audits the mapping),
#: so ``repro --help`` always points at the right doc.
COMMAND_DOCS = {
    "run": "docs/ARCHITECTURE.md",
    "sweep": "docs/TUNING.md",
    "validate": "EXPERIMENTS.md",
    "analyze": "docs/MODELING.md",
    "chaos": "docs/RELIABILITY.md",
    "ledger": "docs/LEDGER.md",
    "explain": "docs/OBSERVABILITY.md",
}

#: ``repro ledger`` subcommands and their help (doc-parity tested
#: against the table in docs/LEDGER.md).
LEDGER_SUBCOMMANDS = {
    "list": "newest recorded runs",
    "show": "one full row as JSON",
    "trend": "one metric's sparkline with anomaly detection",
    "verify": "check schema versions, run ids and a torn final line; "
              "exit 1 on any issue",
    "prune": "drop all but the newest N rows",
    "export": "copy every row to a JSONL file"}


def _number(cast, what: str, least=None):
    """An argparse type: a finite ``cast`` above 0, or at least ``least``
    when given."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = float("nan")
        if not (value < float("inf") and (value > 0 if least is None
                                          else value >= least)):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value
    return parse


_count = _number(int, "a positive whole number")
_windows = _number(int, "a whole number of windows, at least 2", 2)
_history = _number(int, "a whole number of points, at least "
                        f"{ledger_module.MIN_HISTORY}",
                   ledger_module.MIN_HISTORY)
_rows = _number(int, "a whole number of rows, 0 or more", 0)
_seconds = _number(float, "a positive, finite number of seconds")
_fraction = _number(float, "a positive fraction of capacity")
_rate = _number(float, "a positive, finite rate in requests/s")

#: The options that belong to one of ``run``'s observers, to ``sweep
#: load.rate`` or to ``validate NAME``: dest -> (what it belongs to, its
#: default, its help, its other argparse keywords).  Set without its
#: owner, an option is an argparse error.
RUN_OPTIONS = {
    "buffer": ("--trace", 1 << 20, "ring capacity in events",
               {"type": _count}),
    "interval": ("--monitor", 0.01, "window width in seconds",
                 {"type": _seconds}),
    "max_windows": ("--monitor", 256, "windows kept before pairs merge",
                    {"type": _windows}),
    "json": ("--monitor --critpath", False, "print one JSON document",
             {"action": "store_true"}),
    "engine": ("--critpath", "event", "timing model",
               {"choices": ["legacy", "event"]}),
    "rate": ("--critpath", None, "open-loop arrivals per second "
                                 "(default: the closed loop)",
             {"type": _rate}),
    "seed": ("--critpath", 1234, "arrival seed", {"type": int}),
    "folded": ("--critpath", None, "also write folded flame stacks",
               {"metavar": "PATH"}),
}
SWEEP_OPTIONS = {dest: ("load.rate",) + entry for dest, entry in {
    "workload": ("sysbench", "", {"choices": sorted(WORKLOADS)}),
    "system": ("icash", "", {"choices": SYSTEM_NAMES}),
    "points": (6, "calibrated sweep points", {"type": _count}),
    "span": (sweeps.DEFAULT_SPAN, "calibrated span, as capacity fractions",
             {"type": _fraction, "nargs": 2, "metavar": ("LO", "HI")}),
    "distribution": ("poisson", "", {"choices": ["poisson", "constant"]}),
    "seed": (1234, "arrival seed of every point", {"type": int}),
    "csv": (None, "also write the curve as CSV", {"metavar": "PATH"}),
    "compare": (False, "every architecture at its own knee instead",
                {"action": "store_true"})}.items()}
VALIDATE_OPTIONS = {
    "jobs": ("NAME", 1, "worker processes (identical results)",
             {"type": _count}),
    "no_ledger": ("NAME", False, "record nothing in the run ledger",
                  {"action": "store_true"}),
}


def _add_owned(group, options) -> None:
    for dest, (owners, default, help_text, keywords) in options.items():
        tail = f" (default {default})" if default else ""
        group.add_argument(f"--{dest.replace('_', '-')}", default=None,
                           help=f"{owners.replace(' ', ' / ')}: "
                                f"{help_text}{tail}", **keywords)


def _resolve(args, options, given: str) -> None:
    """Fill in each of ``options``' defaults; an argparse error (exit 2)
    for one set without any of the owners it belongs to."""
    for dest, (owners, default, _, _) in options.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif given not in owners.split():
            args.error(f"--{dest.replace('_', '-')} only applies with "
                       f"{owners.replace(' ', ' or ')}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="I-CASH (HPCA 2011) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, handler, help_text: str, no_ledger: bool = True):
        verb_parser = sub.add_parser(
            name, help=f"{help_text} (see {COMMAND_DOCS[name]})")
        verb_parser.set_defaults(handler=handler, error=verb_parser.error)
        if no_ledger:
            verb_parser.add_argument("--no-ledger", action="store_true",
                                     help="record nothing in the run "
                                          "ledger (or set REPRO_LEDGER=0)")
        return verb_parser

    run = verb("run", _cmd_run, "run one workload on one architecture and "
               "print the full diagnosis, or attach one observer "
               "(docs/OBSERVABILITY.md)")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--system", default="icash", choices=SYSTEM_NAMES)
    run.add_argument("--requests", type=_count,
                     help="default 6000; 3000 with an observer")
    run.add_argument("--verify", action="store_true",
                     help="verify every read against the shadow copy")
    observers = run.add_argument_group(
        "observers", "attach one in place of the diagnosis")
    attach = observers.add_mutually_exclusive_group()
    attach.add_argument("--trace", metavar="PATH",
                        help="write a ring trace (.jsonl: JSON Lines, else "
                             "Chrome JSON); print the attribution table")
    attach.add_argument("--monitor", metavar="DIR",
                        help="write windowed series.csv, series.jsonl and "
                             "metrics.prom to DIR; print a window report")
    attach.add_argument("--critpath", action="store_true",
                        help="print the critical-path attribution table")
    _add_owned(observers, RUN_OPTIONS)

    sweep = verb("sweep", _cmd_sweep, "sweep one ICASHConfig field on "
                 "SysBench, or load.rate to the saturation knee")
    sweep.add_argument("parameter",
                       help="ICASHConfig field (e.g. scan_interval) or "
                            "load.rate")
    sweep.add_argument("values", nargs="*",
                       help="values; for load.rate, offered requests/s, "
                            "or none to calibrate and sweep --points")
    sweep.add_argument("--requests", type=_count,
                       help="per run; default 6000, 3000 for load.rate")
    sweep.add_argument("--jobs", type=_count, default=1,
                       help="worker processes (identical results)")
    _add_owned(sweep, SWEEP_OPTIONS)

    validate = verb("validate", _cmd_validate,
                    "hold every paper series to its floor and check the "
                    "headline claims, exit 1 on a miss; with names, print "
                    "those series", no_ledger=False)
    validate.add_argument("names", nargs="*", metavar="NAME",
                          help="one of "
                               f"{', '.join(figures_module.ALL_FIGURES)}, "
                               "or 'all'")
    validate.add_argument("--requests", type=_count,
                          help="per run (default: the harness default)")
    _add_owned(validate, VALIDATE_OPTIONS)

    analyze = verb("analyze", _cmd_analyze, "a workload's Table 4 profile "
                   "and content locality (Section 2.2)", no_ledger=False)
    analyze.add_argument("workload", choices=sorted(WORKLOADS))
    analyze.add_argument("--requests", type=_count, default=2000)

    chaos = verb("chaos", _cmd_chaos, "judge the fault-injection scenario "
                 "matrix against its SLO budgets; exit 1 on any FAIL")
    chaos.add_argument("--quick", action="store_true",
                       help="one scenario per fault class")
    chaos.add_argument("--requests", type=_count, default=2000,
                       help="per scenario; the fault fires halfway")
    chaos.add_argument("--seed", type=int, default=1234,
                       help="fault and arrival seed")
    chaos.add_argument("--scenario", nargs="+", metavar="ID",
                       help="only these scenario IDs")
    chaos.add_argument("--out", metavar="PATH",
                       help="also write the verdicts as JSONL")

    ledger = verb("ledger", _cmd_ledger, "list, show, trend, verify, "
                  "prune or export the run ledger", no_ledger=False)
    lsub = ledger.add_subparsers(dest="ledger_command", required=True)
    store = {}
    for name, help_text in LEDGER_SUBCOMMANDS.items():
        store[name] = lsub.add_parser(name, help=help_text)
        store[name].add_argument("--dir", help="default: REPRO_LEDGER_DIR "
                                               "or .repro-ledger")
    for name, last in (("list", 20), ("trend", 50)):
        store[name].add_argument("--last", type=_count, default=last)
        store[name].add_argument("--filter", action="append",
                                 metavar="KEY=VALUE",
                                 help="command/workload/system/engine/"
                                      "seed; repeatable")
    store["show"].add_argument("ref", help="seq number or run-id prefix")
    store["trend"].add_argument("metric", help="scalar name, "
                                               "counters.<name> or "
                                               "slo.breaches")
    store["trend"].add_argument("--window", type=_history,
                                default=ledger_module.DEFAULT_WINDOW,
                                help="rolling history per point")
    store["prune"].add_argument("--keep", type=_rows, required=True)
    store["export"].add_argument("--out", required=True)
    store["export"].add_argument("--canonical", action="store_true",
                                 help="drop the volatile sub-object")

    explain = verb("explain", _cmd_ledger, "differential diagnosis of two "
                   "ledger rows", no_ledger=False)
    explain.add_argument("a", help="baseline: a ledger seq/run-id prefix")
    explain.add_argument("b", help="candidate: a ledger seq/run-id prefix")
    explain.add_argument("--dir", help="default: REPRO_LEDGER_DIR or "
                                       ".repro-ledger")
    explain.add_argument("--json", action="store_true",
                         help="the machine-readable report")
    explain.add_argument("--flame-diff", metavar="PATH",
                         help="also write the two-column folded flame diff")
    return parser


def _parse_value(text: str):
    for cast in (int, float, str):
        try:
            return cast(text)
        except ValueError:
            continue


def _ledger_note(ledger) -> None:
    """One closing line saying where the run(s) were recorded."""
    if ledger is not None and ledger.recorded:
        noun = "run" if ledger.recorded == 1 else "runs"
        print(f"ledger: recorded {ledger.recorded} {noun} -> "
              f"{ledger.root} (inspect with 'repro ledger list')")


def _cmd_run(args) -> int:
    observer = next((flag for flag in ("trace", "monitor", "critpath")
                     if getattr(args, flag)), None)
    _resolve(args, RUN_OPTIONS, f"--{observer}" if observer else "")
    spec = RunSpec(
        workload=args.workload, system=args.system,
        n_requests=args.requests or (3000 if observer else 6000),
        engine=args.engine if observer == "critpath" else "legacy",
        # No warm-up cut under a trace: its table and the run's means
        # cover every request the ring holds.
        warmup_fraction=0.0 if observer == "trace"
        else RunSpec.warmup_fraction,
        load=args.rate and ("open", args.rate, "poisson", args.seed))
    # Observers attach to a live workload and system, which no worker
    # could be sent: the run happens here.
    workload = spec.build_workload()
    system = spec.build_system(workload)
    tracer = RingBufferTracer(capacity_events=args.buffer) \
        if observer == "trace" or args.folded else None
    profiler = Profiler() if observer in ("trace", "critpath") else None
    monitor = Monitor(interval_s=args.interval,
                      max_windows=args.max_windows) \
        if observer == "monitor" else None
    result = run_benchmark(workload, system, verify_reads=args.verify,
                           warmup_fraction=spec.warmup_fraction,
                           tracer=tracer, monitor=monitor,
                           engine=spec.engine, load=spec.build_load(),
                           profiler=profiler)
    # Every spelling records one row; a profiled run's row carries the
    # attribution and noise that repro explain compares.
    ledger = default_ledger(args.no_ledger)
    record_run(ledger, result, observer or "run", spec,
               extra=monitor and {"interval_s": args.interval})
    if observer == "trace":
        code = _report_trace(args, result, tracer, profiler.table)
    elif observer == "critpath":
        code = _report_critpath(args, spec, result, tracer, profiler.table)
    elif observer == "monitor":
        code = _report_monitor(args, workload, monitor)
    else:
        code = _report_run(args, result, system)
    if not args.json:
        _ledger_note(ledger)
    return code


def _report_run(args, result, system) -> int:
    print(f"{args.workload} on {args.system}: "
          f"{result.transactions_per_s:.1f} tx/s, "
          f"read {result.read_mean_us:.1f} us "
          f"(p99 {result.read_p99_us:.1f}), "
          f"write {result.write_mean_us:.1f} us, "
          f"cpu {result.cpu_utilization:.0%}, "
          f"runtime SSD writes {result.ssd_write_ops}")
    if args.verify:
        print(f"reads verified byte-exact: {result.verified_reads}")
    if args.system == "icash":
        from repro.experiments.breakdown import (read_breakdown,
                                                 semiconductor_fraction,
                                                 write_breakdown)
        print(f"\n{system.describe()}\n\n{read_breakdown(system).render()}"
              f"\n\n{write_breakdown(system).render()}\n\nreads served "
              f"without mechanical I/O: {semiconductor_fraction(system):.1%}")
    return 0


def _report_trace(args, result, tracer, table) -> int:
    jsonl = args.trace.endswith(".jsonl")
    written = (export_jsonl if jsonl else export_chrome_trace)(
        tracer, args.trace)
    kind = "JSONL" if jsonl else "Chrome trace_event; open in " \
        "chrome://tracing or https://ui.perfetto.dev"
    print(f"{args.workload} on {args.system}: wrote {written} events "
          f"to {args.trace} ({kind})\nevents recorded: "
          f"{len(tracer.events)}, dropped: {tracer.dropped}\n\n"
          f"{table.render()}")
    if tracer.dropped:
        print(f"warning: ring buffer overflowed; the {tracer.dropped} "
              f"oldest events were dropped — the trace file covers "
              f"only the surviving tail. Raise --buffer for a complete "
              f"trace.", file=sys.stderr)
    # The ring's read spans must reproduce the run's read mean, unless
    # it dropped events and covers only the tail (warned above).
    stats_mean = result.read_mean_us
    reads = [event.dur for event in tracer.events
             if event.name == "request_start" and event.outcome == "read"]
    trace_mean = sum(reads) / len(reads) * 1e6 if reads else 0.0
    print(f"\nconsistency: trace read mean {trace_mean:.2f} us vs "
          f"stats read mean {stats_mean:.2f} us")
    if tracer.dropped or \
            abs(trace_mean - stats_mean) <= 1e-6 * max(1.0, stats_mean):
        return 0
    print("warning: the trace's read mean disagrees with the run's "
          "measured read mean", file=sys.stderr)
    return 1


def _report_monitor(args, workload, monitor) -> int:
    os.makedirs(args.monitor, exist_ok=True)
    paths = {kind: os.path.join(args.monitor, name) for kind, name in (
        ("csv", "series.csv"), ("jsonl", "series.jsonl"),
        ("prometheus", "metrics.prom"))}
    rows = export_series_csv(monitor, paths["csv"])
    export_series_jsonl(monitor, paths["jsonl"])
    samples = export_prometheus(monitor, paths["prometheus"])
    # Cross-check the windowed series against the stream itself: summed
    # window deltas must reproduce the stream's read and write counts.
    reads = [request.is_read for request in workload.requests()]
    counts = {"series_reads": monitor.counter_total("requests_read_total"),
              "stats_reads": sum(reads),
              "series_writes": monitor.counter_total("requests_write_total"),
              "stats_writes": len(reads) - sum(reads)}
    consistent = (counts["series_reads"], counts["series_writes"]) == \
        (counts["stats_reads"], counts["stats_writes"])
    if args.json:
        print(json.dumps({
            "workload": args.workload, "system": args.system,
            "interval_s": args.interval, **monitor.to_doc(),
            "exports": paths, "consistency": {**counts, "ok": consistent},
        }, sort_keys=True, indent=2))
    else:
        print(f"{args.workload} on {args.system}: {rows} sample windows "
              f"-> {paths['csv']}, {paths['jsonl']}; {samples} final "
              f"samples -> {paths['prometheus']}\n\n"
              f"{monitor.render_report()}\n\nconsistency: series reads "
              f"{counts['series_reads']:.0f} vs stats "
              f"{counts['stats_reads']}, series writes "
              f"{counts['series_writes']:.0f} vs stats "
              f"{counts['stats_writes']}")
    if not consistent:
        print("warning: windowed series disagree with run-end "
              "statistics", file=sys.stderr)
        return 1
    return 0


def _report_critpath(args, spec, result, tracer, table) -> int:
    if not args.json:
        loaded = f" at {args.rate:.0f} req/s" if args.rate else ""
        print(f"{args.workload} on {args.system} "
              f"({spec.engine} engine{loaded}), "
              f"{table.latency('read').count + table.latency('write').count} "
              f"measured requests:\n\n{table.render()}\n")
    # A class's rows must add up to the run's own mean for the class
    # (docs/OBSERVABILITY.md); rows holding time no request's latency
    # contains do not, and then their sum is reported beside it.
    consistency = []
    for op, run_mean in (("read", result.read_mean_us),
                         ("write", result.write_mean_us)):
        tolerance = 1e-6 * max(1.0, run_mean)
        table_mean = table.mean_us(op)
        rows_mean = sum(table.row_mean_us(row) for row in table.rows(op))
        if abs(rows_mean - table_mean) > tolerance:
            table_mean = rows_mean
        ok = abs(table_mean - run_mean) <= tolerance
        consistency.append({"op": op, "attribution_mean_us": table_mean,
                            "run_mean_us": run_mean, "ok": ok})
        if not args.json:
            print(f"consistency: attribution {op} mean {table_mean:.2f} us "
                  f"vs run {op} mean {run_mean:.2f} us "
                  f"[{'ok' if ok else 'MISMATCH'}]")
    consistent = all(check["ok"] for check in consistency)
    folded = args.folded and {
        "path": args.folded,
        "lines": export_folded(table, tracer.events, args.folded)}
    if folded and not args.json:
        print(f"\nwrote {folded['lines']} folded stacks to {args.folded} "
              f"(flamegraph.pl / speedscope 'folded' format)")
    if folded and tracer.dropped:
        print(f"warning: ring buffer dropped {tracer.dropped} events; "
              f"folded background and run stacks cover the surviving "
              f"tail", file=sys.stderr)
    if args.json:
        print(json.dumps({
            "workload": args.workload, "system": args.system,
            "engine": spec.engine, "rate": args.rate, **table.to_doc(),
            "queueing": result.queueing and result.queueing.to_doc(),
            "consistency": consistency, "consistent": consistent,
            "folded": folded,
        }, sort_keys=True, indent=2))
    return 0 if consistent else 1


def _cmd_sweep(args) -> int:
    _resolve(args, SWEEP_OPTIONS, args.parameter)
    if args.parameter == "load.rate":
        return _sweep_rates(args)
    if not args.values:
        args.error(f"sweep {args.parameter} needs at least one value")
    spec = RunSpec(workload="sysbench", n_requests=args.requests or 6000,
                   warmup_fraction=0.4)
    values = [_parse_value(v) for v in args.values]
    try:
        sweeps.check_config_values(spec, args.parameter, values)
    except (TypeError, ValueError) as error:
        print(f"bad parameter {args.parameter!r}: {error}", file=sys.stderr)
        return 2
    ledger = default_ledger(args.no_ledger)
    print(sweeps.render_sweep(sweeps.sweep_config(
        spec, args.parameter, values, jobs=args.jobs, ledger=ledger)))
    _ledger_note(ledger)
    return 0


def _sweep_rates(args) -> int:
    try:
        rates = sorted(_rate(value) for value in args.values)
    except argparse.ArgumentTypeError as error:
        args.error(f"argument values: {error}")
    lo, hi = args.span
    if lo > hi:
        args.error(f"argument --span: LO {lo} above HI {hi}")
    requests = args.requests or 3000
    spec = RunSpec(workload=args.workload, system=args.system,
                   n_requests=requests)
    arrivals = {"distribution": args.distribution, "seed": args.seed}
    ledger = default_ledger(args.no_ledger)
    if args.compare:
        print(f"comparing architectures at their saturation knees "
              f"({args.workload}, {requests} requests/run)...")
        print(sweeps.render_comparison(sweeps.compare_at_knee(
            spec, jobs=args.jobs, ledger=ledger,
            **arrivals)))
        _ledger_note(ledger)
        return 0
    if rates:
        how = f"sweeping {len(rates)} explicit rates"
    else:
        capacity = sweeps.calibrate_capacity(spec, ledger=ledger)
        rates = sweeps.auto_rates(capacity, args.points, span=(lo, hi))
        how = f"calibrated capacity {capacity:.0f} requests/s; sweeping " \
              f"{len(rates)} rates across {lo:.1f}-{hi:.1f}x"
    print(f"{args.workload} on {args.system}: {how} "
          f"({args.distribution} arrivals)")
    curve = sweeps.sweep_rates(spec, rates, jobs=args.jobs, ledger=ledger,
                               **arrivals)
    print(f"\n{sweeps.render_curve(curve)}")
    if args.csv is not None:
        rows = sweeps.export_curve_csv(curve, args.csv)
        print(f"\nwrote {rows} sweep rows to {args.csv}")
    _ledger_note(ledger)
    return 0


def _cmd_validate(args) -> int:
    _resolve(args, VALIDATE_OPTIONS, "NAME" if args.names else "")
    if not args.names:
        summary = validate_module.validate(n_requests=args.requests)
        print(summary.render())
        return 0 if summary.passed else 1
    series = figures_module.ALL_FIGURES
    names = list(series) if args.names == ["all"] else args.names
    unknown = [name for name in names if name not in series]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)} — one of "
              f"{', '.join(series)}, or 'all'", file=sys.stderr)
        return 2
    ledger = default_ledger(args.no_ledger)
    if args.jobs > 1:  # fill the grid cache from workers
        figures_module.prewarm(names, n_requests=args.requests
                               or figures_module.DEFAULT_REQUESTS,
                               jobs=args.jobs)
    for name in names:
        result = figures_module.run_figure(name, args.requests)
        figures_module.record_figure(ledger, result)
        print(f"{result.render()}\n")
    _ledger_note(ledger)
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import analyze_dataset, analyze_writes

    cls = WORKLOADS[args.workload]
    workload = cls(scale=0.25, n_requests=args.requests)
    print("measured:", workload.measured_profile().format_row())
    print("paper:   ", cls.paper_profile.format_row())
    dataset = workload.build_dataset()
    locality = analyze_dataset(dataset, sample=min(2000, workload.n_blocks))
    writes = analyze_writes(dataset, workload.requests())
    print(f"{args.workload} initial data set:\n  {locality.summary()}\n"
          f"{args.workload} write stream:\n  {writes.summary()}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.experiments import chaos

    scenarios = chaos.quick_scenarios() if args.quick else chaos.SCENARIOS
    if args.scenario is not None:
        by_id = {s.scenario_id: s for s in chaos.SCENARIOS}
        unknown = [sid for sid in args.scenario if sid not in by_id]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)} — known: "
                  f"{', '.join(sorted(by_id))}", file=sys.stderr)
            return 2
        scenarios = tuple(by_id[sid] for sid in args.scenario)
    ledger = default_ledger(args.no_ledger)
    report = chaos.run_matrix(
        scenarios, seed=args.seed, n_requests=args.requests,
        progress=lambda msg: print(msg, file=sys.stderr), ledger=ledger)
    print(report.render())
    if args.out is not None:
        lines = chaos.export_chaos_jsonl(report, args.out)
        print(f"wrote {lines} JSONL lines to {args.out}")
    _ledger_note(ledger)
    return 0 if report.all_passed else 1


def _cmd_ledger(args) -> int:
    """``ledger SUBCOMMAND`` and ``explain A B``: the readers of a store
    that exists; exit 2 when there is none, or on a bad ref or row."""
    from repro.analysis.explain import (explain_ledger_rows,
                                        export_flame_diff)

    root = args.dir or ledger_module.default_root()
    path = os.path.join(root, ledger_module.EXPORT_NAME)
    if not os.path.exists(path):
        print(f"no ledger at {path} — any recorded invocation "
              f"(e.g. 'repro run sysbench') creates one", file=sys.stderr)
        return 2
    store = ledger_module.LedgerWriter(root)
    command = getattr(args, "ledger_command", "explain")
    try:
        if command == "explain":
            report = explain_ledger_rows(store.get(args.a),
                                         store.get(args.b))
            print(report.render_json() if args.json else report.render())
        elif command == "verify":
            issues = store.verify()
            for issue in issues:
                print(f"FAIL: {issue}", file=sys.stderr)
            if issues:
                return 1
            print(f"ok: {store.count()} row(s), every run id matches "
                  f"its content")
        elif command == "show":
            print(ledger_module.render_row(store.get(args.ref)))
        elif command == "prune":
            removed = store.prune(args.keep)
            print(f"pruned {removed} row(s); {store.count()} remain")
        elif command == "export":
            count = store.export(args.out, canonical=args.canonical)
            form = " (canonical)" if args.canonical else ""
            print(f"wrote {count} row(s) to {args.out}{form}")
        else:
            filters = ledger_module.parse_filters(args.filter) or None
            if command == "list":
                print(ledger_module.render_rows(
                    store.rows(filters, last=args.last)))
            else:
                print(store.trend(args.metric, filters, last=args.last,
                                  window=args.window).render())
    except (KeyError, ValueError) as error:
        print(error.args[0] if error.args else error, file=sys.stderr)
        return 2
    if command == "explain" and args.flame_diff is not None:
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
    args = _build_parser().parse_args(argv)
    with parallel_session():
        return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
