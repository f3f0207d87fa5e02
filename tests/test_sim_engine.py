"""Discrete-event engine, load generators and saturation sweeps.

The two contract tests the subsystem lives or dies by:

* **Collapse.**  One zero-think closed-loop client serialises the event
  timeline, so every measured total — service times, latency stats, SSD
  write counts, controller counters — must equal the legacy runner's
  exactly (the engine re-times requests; it must never re-order or
  re-process them).
* **Determinism.**  Same seed, same stream, same system → identical
  event order and identical per-request waits and latencies.

Plus the saturation acceptance criteria: a rate sweep's throughput
curve is monotone (within the arrival pattern's tolerance), flattens at
a measurable knee, and post-knee p99 sits strictly above pre-knee p99.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.encoder import Delta
from repro.delta.packer import DeltaLog, DeltaRecord
from repro.devices.hdd import HardDiskDrive
from repro.experiments import sweeps
from repro.experiments.parallel import RunSpec, run_spec
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import SYSTEM_NAMES, make_system
from repro.sim import engine as engine_module
from repro.sim.engine import EventEngine, QueueingSummary
from repro.sim.load import (ClosedLoopLoad, OpenLoopLoad,
                            default_closed_loop)
from repro.sim.metrics import Monitor, export_prometheus
from repro.sim.trace import RingBufferTracer
from repro.workloads import SysBenchWorkload, TPCCWorkload


def _serial_load() -> ClosedLoopLoad:
    return ClosedLoopLoad(clients=1, think_s=0.0)


def _run_pair(seed: int, n_requests: int = 400):
    """The same (workload, system) pair measured both ways."""
    legacy = run_benchmark(
        SysBenchWorkload(scale=0.05, n_requests=n_requests, seed=seed),
        make_system("icash", SysBenchWorkload(scale=0.05,
                                              n_requests=n_requests,
                                              seed=seed)))
    wl = SysBenchWorkload(scale=0.05, n_requests=n_requests, seed=seed)
    event = run_benchmark(wl, make_system("icash", wl), engine="event",
                          load=_serial_load())
    return legacy, event


class TestCollapseToLegacy:
    """engine="event" with one zero-think client == the legacy replay."""

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_totals_collapse(self, seed):
        legacy, event = _run_pair(seed)
        assert event.engine == "event"
        assert legacy.engine == "legacy"
        # Identical service work: every latency statistic and every
        # device/controller total matches exactly.
        assert event.io_time_s == legacy.io_time_s
        assert event.read_mean_us == legacy.read_mean_us
        assert event.write_mean_us == legacy.write_mean_us
        assert event.read_p99_us == legacy.read_p99_us
        assert event.write_p99_us == legacy.write_p99_us
        assert event.ssd_write_ops == legacy.ssd_write_ops
        assert event.ssd_write_blocks == legacy.ssd_write_blocks
        assert event.counters == legacy.counters
        assert event.n_measured == legacy.n_measured
        # A single serialised client never waits.
        assert event.queueing.wait_max_us == 0.0

    def test_collapse_with_verified_reads(self):
        wl = SysBenchWorkload(scale=0.05, n_requests=300)
        event = run_benchmark(wl, make_system("icash", wl),
                              engine="event", load=_serial_load(),
                              verify_reads=True)
        assert event.verified_reads > 0


class TestDeterminism:
    def _one(self, keep_log=True):
        wl = SysBenchWorkload(scale=0.05, n_requests=300)
        system = make_system("icash", wl)
        system.ingest()
        engine = EventEngine(system, keep_event_log=keep_log)
        records = engine.run(wl, OpenLoopLoad(300_000.0, seed=42))
        return engine, records

    def test_same_seed_same_events_and_latencies(self):
        eng_a, recs_a = self._one()
        eng_b, recs_b = self._one()
        assert eng_a.event_log == eng_b.event_log
        assert len(eng_a.event_log) > 0
        assert [(r.wait_s, r.service_s, r.completion_s)
                for r in recs_a] == \
               [(r.wait_s, r.service_s, r.completion_s)
                for r in recs_b]

    def test_event_log_off_by_default(self):
        wl = SysBenchWorkload(scale=0.05, n_requests=50)
        system = make_system("icash", wl)
        assert EventEngine(system).event_log is None


def _tpcc_with_destages(system_name: str):
    """TPC-C at a size where the cache baselines evict dirty blocks."""
    wl = TPCCWorkload(scale=0.1, n_requests=1000)
    system = make_system(system_name, wl)
    system.ingest()
    return wl, system


class TestEngineBehaviour:
    def test_latency_is_wait_plus_service(self, taken):
        # On every architecture: what a system does off the critical
        # path (I-CASH's flushes and scans, the cache baselines'
        # destages) reaches the engine as backlog, never as a station
        # phase of the request that triggered it.
        for name in SYSTEM_NAMES:
            wl, system = _tpcc_with_destages(name)
            engine = EventEngine(system)
            del taken[:]
            # Drive well past capacity so queues actually form.
            records = engine.run(wl, OpenLoopLoad(5_000_000.0, seed=1))
            if name in ("lru", "dedup"):
                assert system.destages > 0
            assert any(r.wait_s > 0 for r in records), name
            assert len(taken) == len(records)
            for r, (phases, _emitted, _bg) in zip(records, taken):
                assert r.latency_s == r.wait_s + r.service_s
                assert r.completion_s >= r.arrival_s
                assert r.completion_s == pytest.approx(
                    r.arrival_s + r.latency_s), name
                assert sum(dur for _device, dur in phases) \
                    <= r.service_s + 1e-12, name

    @pytest.mark.parametrize("system_name", SYSTEM_NAMES)
    def test_backlog_is_the_background_clock(self, monkeypatch,
                                             system_name):
        # The two clocks agree on what is background: the seconds the
        # engine receives as deferrable backlog are the device share of
        # ``background_time`` (all of it but the scans' CPU time).
        wl, system = _tpcc_with_destages(system_name)
        bg_before = system.background_time
        backlog, scan_cpu = [], []
        add_backlog = EventEngine.add_backlog

        def spy_backlog(self, device, seconds):
            backlog.append(seconds)
            add_backlog(self, device, seconds)

        monkeypatch.setattr(EventEngine, "add_backlog", spy_backlog)
        if hasattr(system, "scanner"):              # only I-CASH scans
            scan = system.scanner.scan

            def spy_scan(*args, **kwargs):
                result = scan(*args, **kwargs)
                scan_cpu.append(result.cpu_time)
                return result

            monkeypatch.setattr(system.scanner, "scan", spy_scan)
        EventEngine(system).run(wl, default_closed_loop(wl))
        background = system.background_time - bg_before
        if system_name in ("icash", "lru", "dedup"):
            assert background > 0.0
        assert sum(backlog) == pytest.approx(
            background - sum(scan_cpu), abs=1e-9)

    def test_stations_respect_slot_capacity(self):
        wl = SysBenchWorkload(scale=0.05, n_requests=400)
        system = make_system("icash", wl)
        system.ingest()
        engine = EventEngine(system)
        engine.run(wl, OpenLoopLoad(1_000_000.0, seed=3))
        summary = engine.summary()
        assert isinstance(summary, QueueingSummary)
        for st_summary in summary.stations.values():
            # Busy time can never exceed slots x elapsed.
            assert st_summary.busy_s <= \
                summary.duration_s * st_summary.slots * (1 + 1e-9)
            assert 0.0 <= st_summary.utilization <= 1.0 + 1e-9
        # I-CASH defers flush/scan work: it must have run as
        # background quanta on an otherwise foreground-free station.
        assert any(s.background_s > 0
                   for s in summary.stations.values())

    def test_background_yields_to_foreground(self, monkeypatch):
        # A foreground arrival waits at most one background quantum:
        # backlog is drained in bounded chunks, never as one span.  The
        # quantum sits below the run's 1.5 ms of backlog, so one span
        # would break the bound.
        quantum = 2e-4
        monkeypatch.setattr(engine_module, "BACKGROUND_QUANTUM_S", quantum)
        wl = SysBenchWorkload(scale=0.05, n_requests=400)
        system = make_system("icash", wl)
        system.ingest()
        engine = EventEngine(system)
        engine.run(wl, OpenLoopLoad(2_000_000.0, seed=5))
        drained = [s for s in engine.stations.values() if s.bg_chunks]
        assert drained, "no station drained any background backlog"
        for station in drained:
            # (1 + 1e-9): the chunk sum rounds once per chunk.
            assert station.bg_busy_s <= station.bg_chunks \
                * quantum * (1 + 1e-9), station.name

    def test_engine_validation(self):
        wl = SysBenchWorkload(scale=0.05, n_requests=50)
        system = make_system("icash", wl)
        with pytest.raises(ValueError, match="unknown engine"):
            run_benchmark(wl, system, engine="bogus")
        with pytest.raises(ValueError, match="engine='event'"):
            run_benchmark(wl, system, load=_serial_load())


class TestLoadGenerators:
    def test_open_loop_validation(self):
        with pytest.raises(ValueError):
            OpenLoopLoad(0.0)
        with pytest.raises(ValueError):
            OpenLoopLoad(100.0, distribution="uniform")

    def test_closed_loop_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopLoad(0)
        with pytest.raises(ValueError):
            ClosedLoopLoad(4, think_s=-1.0)

    def test_constant_spacing(self):
        load = OpenLoopLoad(1000.0, distribution="constant")
        load.reset()
        assert load.next_arrival(0.0) == pytest.approx(1e-3)
        assert load.next_arrival(5.0) == pytest.approx(5.001)

    def test_poisson_interarrivals_scale_with_rate(self):
        """Same seed at two rates => the same arrival pattern
        compressed in time (what keeps sweep curves monotone)."""
        slow, fast = OpenLoopLoad(100.0, seed=9), OpenLoopLoad(200.0,
                                                               seed=9)
        slow.reset()
        fast.reset()
        for _ in range(50):
            assert fast.next_arrival(0.0) == \
                pytest.approx(slow.next_arrival(0.0) / 2.0)

    def test_default_closed_loop_matches_workload(self):
        wl = SysBenchWorkload(scale=0.05, n_requests=50)
        load = default_closed_loop(wl)
        assert load.clients == wl.io_concurrency
        assert load.think_s == pytest.approx(
            wl.app_compute_per_tx / wl.ios_per_transaction)

    def test_closed_loop_thinks_a_constant(self):
        load = ClosedLoopLoad(4, think_s=1e-3)
        load.reset()
        assert [load.next_think() for _ in range(3)] == [1e-3] * 3


class TestObservabilityIntegration:
    def test_queue_span_and_instruments(self, tmp_path):
        wl = SysBenchWorkload(scale=0.05, n_requests=400)
        system = make_system("icash", wl)
        tracer = RingBufferTracer()
        monitor = Monitor(interval_s=0.001)
        result = run_benchmark(wl, system, engine="event",
                               load=OpenLoopLoad(2_000_000.0, seed=2),
                               tracer=tracer, monitor=monitor,
                               warmup_fraction=0.0)
        names = {e.name for e in tracer.events}
        assert "queue" in names
        assert "request_start" in names
        assert len(monitor.t_end) > 0
        assert isinstance(result.slo_breaches, list)
        path = tmp_path / "metrics.prom"
        export_prometheus(monitor, str(path))
        text = path.read_text()
        for name in ("queue_wait_us", "queue_depth",
                     "device_utilization", "delta_log_corrupt_total",
                     "recovery_replays_total", "recovery_records_total"):
            assert name in text, f"{name} missing from export"

    def test_queue_spans_tile_the_request(self):
        """Downstream traces stay exact: wait + service children sum
        to the request span's duration."""
        wl = SysBenchWorkload(scale=0.05, n_requests=300)
        system = make_system("icash", wl)
        tracer = RingBufferTracer()
        run_benchmark(wl, system, engine="event",
                      load=OpenLoopLoad(2_000_000.0, seed=2),
                      tracer=tracer, warmup_fraction=0.0)
        by_req = {}
        for event in tracer.events:
            if event.req is not None and event.track == "request":
                by_req.setdefault(event.req, []).append(event)
        checked = 0
        for events in by_req.values():
            root = [e for e in events if e.name == "request_start"]
            if not root:
                continue
            queue = sum(e.dur for e in events if e.name == "queue")
            if queue > 0:
                assert queue < root[0].dur
                checked += 1
        assert checked > 0


class TestDeltaLogRecoveryCounters:
    """Satellite: the monotone counters behind the new instruments."""

    @staticmethod
    def _log() -> DeltaLog:
        return DeltaLog(HardDiskDrive(100_000), base_lba=50_000,
                        size_blocks=64)

    @staticmethod
    def _record(lba: int) -> DeltaRecord:
        return DeltaRecord(lba, 0, Delta(runs=((0, bytes(2000)),)))

    def test_corrupt_total_survives_replay_reset(self):
        log = self._log()
        _, slots, _ = log.append([self._record(1)])
        log.append([self._record(2)])
        log.corrupt_block(slots[0])
        list(log.replay())
        assert log.corrupt_blocks_skipped == 1
        assert log.corrupt_blocks_total == 1
        list(log.replay())
        # The per-replay attribute resets; the cumulative one must not.
        assert log.corrupt_blocks_skipped == 1
        assert log.corrupt_blocks_total == 2

    def test_replay_outcome_counters(self):
        log = self._log()
        log.append([self._record(1), self._record(2)])
        assert log.replay_count == 0
        first = list(log.replay())
        assert log.replay_count == 1
        assert log.replayed_records_total == len(first) == 2
        list(log.replay())
        assert log.replay_count == 2
        assert log.replayed_records_total == 4

    def test_append_overwrite_counts_toward_total(self):
        hdd = HardDiskDrive(100_000)
        log = DeltaLog(hdd, base_lba=50_000, size_blocks=2)
        _, slots, _ = log.append([self._record(0)])
        log.corrupt_block(slots[0])
        log.append([self._record(1)])
        log.append([self._record(2)])  # wraps onto the torn slot
        assert log.corrupt_blocks_total == 1


class TestLoadtestSweep:
    """The acceptance criteria: monotone curve, knee, p99 ordering."""

    @pytest.fixture(scope="class")
    def sweep(self):
        spec = RunSpec(workload="sysbench", scale=0.05, n_requests=500)
        capacity = sweeps.calibrate_capacity(spec)
        rates = sweeps.auto_rates(capacity, 5, span=(0.3, 1.6))
        return sweeps.sweep_rates(spec, rates, seed=7)

    def test_throughput_monotone_and_flattens(self, sweep):
        achieved = [p.achieved_rps for p in sweep]
        for before, after in zip(achieved, achieved[1:]):
            # Monotone within the arrival pattern's tolerance.
            assert after >= before * 0.97
        # Flattens: the last two (post-knee) points sit within a few
        # percent of each other while offered load keeps growing.
        assert achieved[-1] == pytest.approx(achieved[-2], rel=0.10)
        assert sweep[-1].offered_rps > sweep[-2].offered_rps * 1.15

    def test_knee_found_with_p99_blowup(self, sweep):
        knee = sweeps.find_knee(sweep)
        assert knee is not None and 0 < knee < len(sweep)
        pre = sweep[0]
        for point in sweep[knee:]:
            assert point.p99_ms > pre.p99_ms
            assert point.wait_mean_ms >= pre.wait_mean_ms

    def test_render_and_csv(self, sweep, tmp_path):
        text = sweeps.render_curve(sweep)
        assert "knee" in text
        assert "#" in text
        path = tmp_path / "curve.csv"
        assert sweeps.export_curve_csv(sweep, str(path)) == len(sweep)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("offered_rps,achieved_rps,")
        assert len(lines) == len(sweep) + 1

    def test_find_knee_synthetic(self):
        def point(offered, achieved):
            return sweeps.RatePoint(
                offered_rps=offered, achieved_rps=achieved,
                n_measured=100, mean_ms=0.1, p99_ms=0.2,
                wait_mean_ms=0.0, bottleneck="ssd",
                bottleneck_util=0.5)

        flat = [point(100, 97), point(200, 194), point(400, 390)]
        assert sweeps.find_knee(flat) is None
        kneed = flat + [point(800, 500)]
        assert sweeps.find_knee(kneed) == 3
        assert sweeps.find_knee([]) is None

    def test_auto_rates(self):
        rates = sweeps.auto_rates(1000.0, 5, span=(0.5, 1.5))
        assert len(rates) == 5
        assert rates[0] == pytest.approx(500.0)
        assert rates[-1] == pytest.approx(1500.0)
        assert sweeps.auto_rates(1000.0, 1) == \
            pytest.approx([1000.0 * 0.95])
        with pytest.raises(ValueError):
            sweeps.auto_rates(1000.0, 0)
        with pytest.raises(ValueError):
            sweeps.auto_rates(1000.0, 3, span=(0.0, 1.0))


class TestLoadtestCLI:
    def test_smoke(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "curve.csv"
        code = main(["sweep", "load.rate", "--workload", "sysbench",
                     "--requests", "300", "--points", "2",
                     "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "calibrated capacity" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("offered_rps,achieved_rps,")
        assert len(lines) == 3

    def test_explicit_rates(self, capsys):
        from repro.cli import main

        code = main(["sweep", "load.rate", "50000", "--workload", "sysbench",
                     "--requests", "200",
                     "--distribution", "constant"])
        assert code == 0
        assert "sweeping 1 explicit rates" in capsys.readouterr().out

    def test_csv_identical_at_one_and_two_jobs(self, tmp_path, capsys):
        """``sweep --help`` promises identical results at any job
        count: the curve's CSV matches byte for byte."""
        from repro.cli import main

        paths = [tmp_path / f"knee-jobs{jobs}.csv" for jobs in (1, 2)]
        for jobs, path in zip((1, 2), paths):
            assert main(["sweep", "load.rate", "--workload", "tpcc", "--system",
                         "lru", "--requests", "300", "--points", "3",
                         "--jobs", str(jobs), "--csv", str(path)]) == 0
        capsys.readouterr()
        assert len(paths[0].read_text().splitlines()) == 4
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCapturePhaseOrderingUnderNCQ:
    """Satellite of the profiler PR: attribution depends on the capture
    tracer harvesting each request's phases at admission, in stream
    order — widening a station's NCQ window may only re-time requests,
    never re-order or re-shape their captured phase lists."""

    @staticmethod
    def _profiled(slots: int):
        from repro.sim.profile import Profiler

        wl = SysBenchWorkload(scale=0.05, n_requests=400, seed=21)
        system = make_system("icash", wl)
        system.ingest()
        profiler = Profiler()
        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(engine_module.DEFAULT_DEVICE_SLOTS, "ssd", slots)
            engine = EventEngine(system, profiler=profiler)
            engine.run(wl, OpenLoopLoad(2e6, distribution="constant",
                                        seed=5))
        return profiler.table, engine.summary(), system

    def test_service_items_identical_across_slot_counts(self):
        # The profiler records at completion, and completion order is
        # exactly what NCQ reshuffles — so compare the multiset of
        # per-request phase lists: every request must keep the same
        # phases with the same durations, whatever slot count ran it.
        serial, _, _ = self._profiled(slots=1)
        ncq, _, _ = self._profiled(slots=8)
        stripped = sorted(
            [(request.op, device, phase, dur)
             for device, phase, dur in request.items
             if phase != "queue_wait"]
            for request in serial.requests)
        stripped_ncq = sorted(
            [(request.op, device, phase, dur)
             for device, phase, dur in request.items
             if phase != "queue_wait"]
            for request in ncq.requests)
        assert stripped == stripped_ncq

    def test_waits_shrink_with_more_slots(self):
        _, serial, serial_system = self._profiled(slots=1)
        _, ncq, ncq_system = self._profiled(slots=8)
        assert ncq.wait_mean_us < serial.wait_mean_us
        # The work itself stays put: only waiting changed.
        assert ncq_system.counters() == serial_system.counters()
        assert ncq_system.ssd_write_ops == serial_system.ssd_write_ops


class TestCurveCsvStationColumns:
    """Satellite: sweep CSVs carry per-station utilisation and depth."""

    def test_station_columns_present_and_ordered(self, tmp_path):
        point = sweeps.RatePoint(
            offered_rps=100.0, achieved_rps=99.0, n_measured=50,
            mean_ms=0.1, p99_ms=0.3, wait_mean_ms=0.01,
            bottleneck="ssd", bottleneck_util=0.8,
            station_util={"ssd": 0.8, "hdd": 0.2},
            station_depth={"ssd": 2.5, "hdd": 0.1})
        path = tmp_path / "curve.csv"
        assert sweeps.export_curve_csv([point], str(path)) == 1
        header, row = path.read_text().strip().splitlines()
        assert header == ("offered_rps,achieved_rps,n_measured,mean_ms,"
                          "p99_ms,wait_mean_ms,bottleneck,"
                          "bottleneck_util,util_hdd,util_ssd,"
                          "depth_hdd,depth_ssd")
        cells = row.split(",")
        assert float(cells[8]) == pytest.approx(0.2)   # util_hdd
        assert float(cells[9]) == pytest.approx(0.8)   # util_ssd
        assert float(cells[11]) == pytest.approx(2.5)  # depth_ssd

    def test_points_missing_a_station_default_to_zero(self, tmp_path):
        rich = sweeps.RatePoint(
            offered_rps=1.0, achieved_rps=1.0, n_measured=1,
            mean_ms=0.1, p99_ms=0.1, wait_mean_ms=0.0,
            bottleneck=None, bottleneck_util=0.0,
            station_util={"ssd": 0.5}, station_depth={"ssd": 1.0})
        bare = sweeps.RatePoint(
            offered_rps=2.0, achieved_rps=2.0, n_measured=1,
            mean_ms=0.1, p99_ms=0.1, wait_mean_ms=0.0,
            bottleneck=None, bottleneck_util=0.0)
        path = tmp_path / "curve.csv"
        sweeps.export_curve_csv([rich, bare], str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].endswith("util_ssd,depth_ssd")
        assert lines[2].endswith("0.000000,0.000000")

    def test_real_sweep_populates_station_columns(self):
        spec = RunSpec(workload="sysbench", scale=0.05, n_requests=300)
        (point,) = sweeps.sweep_rates(spec, [50_000.0])
        result = run_spec(
            sweeps._rate_spec(spec, 50_000.0, "poisson", seed=1234))
        assert set(point.station_util) == \
            set(result.queueing.stations)
        for name, summary in result.queueing.stations.items():
            assert point.station_util[name] == summary.utilization
            assert point.station_depth[name] == summary.mean_depth
