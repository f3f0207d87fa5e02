"""Persistent run ledger: every experiment leaves a provenance trail.

An append-only, schema-versioned run store under ``.repro-ledger/``
that every entry point (``figure``, ``sweep``, ``bench``, ``loadtest``,
``chaos``, ``monitor`` and plain :func:`~repro.experiments.runner.
run_benchmark`) records into through :meth:`LedgerWriter.record`.
Each row carries full provenance — the run spec, git SHA and dirty
flag, schema versions, a host fingerprint, the virtual wall times —
plus a curated metric snapshot (METRIC_POLICY scalars, counters, SLO
breaches, the heaviest attribution rows, fault outcomes).  On top sit
field-level :func:`diff_rows` with "why might these differ" hints,
sparkline trends and a rolling median/MAD anomaly detector
(:func:`detect_anomalies`) whose noise floor is the bench harness's
tolerance.

The store is one JSONL file, ``export.jsonl``, one row per line:
reads scan its lines, and jq reads it as it stands.  Determinism
contract: a run's ``run_id`` is a content hash of its non-volatile
fields, machine-local clocks live in a separate ``volatile``
sub-object, and a *canonical* export drops ``volatile`` entirely — so
``--jobs N`` produces byte-identical canonical exports for any N
(results are recorded in submission order by the parent process;
workers never write).

Recording is opt-out (``--no-ledger`` / ``REPRO_LEDGER=0``) and
library use defaults to no ledger (``None``, like the tracer, the
monitor and the profiler).  Schema, field tables, anomaly math,
locking and retention are documented in docs/LEDGER.md (doc-parity
tested by tests/test_ledger_docs.py).
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: Version of the row layout (documented in docs/LEDGER.md, doc-parity
#: tested).  Bump on any breaking change to the keys below; the store
#: refuses to append to rows of another schema version.
LEDGER_SCHEMA_VERSION = 1

#: Default store directory, overridable via :data:`ENV_DIR`.
DEFAULT_DIR = ".repro-ledger"
#: The store: one JSON row per line.
EXPORT_NAME = "export.jsonl"
#: Lock file beside the store, held by every append and prune.
LOCK_NAME = "ledger.lock"

#: ``REPRO_LEDGER=0`` (or ``false``/``no``/``off``) disables recording
#: everywhere :func:`default_ledger` is consulted.
ENV_TOGGLE = "REPRO_LEDGER"
#: Alternative store location for CLI-driven recording.
ENV_DIR = "REPRO_LEDGER_DIR"

#: Provenance keys every row carries (doc-parity tested against the
#: table in docs/LEDGER.md).
PROVENANCE_FIELDS = ("git_sha", "git_dirty", "schema", "host",
                     "sim_wall_s", "sim_full_wall_s")

#: Spec keys every row carries, whether the run came from a
#: :class:`~repro.experiments.parallel.RunSpec` or a plain result.
SPEC_FIELDS = ("workload", "system", "engine", "seed", "n_requests",
               "scale", "n_vms", "warmup_fraction", "config_overrides",
               "load")

#: Filterable columns for ``rows()`` / ``repro ledger --filter``.
FILTER_KEYS = ("command", "workload", "system", "engine", "seed")

#: Robust z-score threshold of the anomaly detector.
ANOMALY_Z = 3.5
#: Normal-consistency constant: sigma ~= 1.4826 x MAD.
MAD_SCALE = 1.4826
#: Rolling history window (matching prior runs) per trend point.
DEFAULT_WINDOW = 8
#: History points needed before a value can be judged at all.
MIN_HISTORY = 3
#: Heaviest attribution rows kept per request class in a snapshot.
TOP_ATTRIBUTION_ROWS = 3

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# Provenance capture
# ---------------------------------------------------------------------------


_GIT_CACHE: Optional[Tuple[Optional[str], Optional[bool]]] = None


def git_provenance() -> Tuple[Optional[str], Optional[bool]]:
    """``(commit sha, dirty flag)`` of the working tree, cached per
    process; ``(None, None)`` outside a git checkout."""
    global _GIT_CACHE
    if _GIT_CACHE is None:
        try:
            root = os.path.dirname(os.path.abspath(__file__))
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, check=True,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=root, check=True,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            _GIT_CACHE = (sha or None, bool(status))
        except (OSError, subprocess.SubprocessError):
            _GIT_CACHE = (None, None)
    return _GIT_CACHE


def host_fingerprint() -> Dict[str, str]:
    """Where a row was recorded — context for cross-machine diffs."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
    }


def schema_versions() -> Dict[str, int]:
    """Every schema version a row depends on."""
    from repro.experiments.bench import BENCH_SCHEMA_VERSION

    return {"ledger": LEDGER_SCHEMA_VERSION,
            "bench": BENCH_SCHEMA_VERSION}


def spec_payload(spec, result) -> Dict[str, object]:
    """Normalise a run description to the :data:`SPEC_FIELDS` shape.

    ``spec`` may be a :class:`~repro.experiments.parallel.RunSpec`, a
    plain dict (partial is fine), or None — missing fields fall back
    to what the :class:`~repro.experiments.runner.RunResult` itself
    knows (seed and overrides are then unknown, recorded as null).
    """
    doc: Dict[str, object] = dict.fromkeys(SPEC_FIELDS)
    doc.update({"workload": result.workload, "system": result.system,
                "engine": result.engine,
                "n_requests": result.n_requests})
    if is_dataclass(spec) and not isinstance(spec, type):
        spec = asdict(spec)
    if spec:
        doc.update({key: spec[key] for key in SPEC_FIELDS
                    if key in spec})
    # Tuples (config_overrides, load) become lists so the stored JSON
    # round-trips to the exact same document.
    return json.loads(json.dumps(doc))


def snapshot_result(result) -> Dict[str, object]:
    """The curated metric snapshot of one run.

    ``scalars`` holds every :data:`~repro.experiments.bench.
    METRIC_POLICY` metric plus derived headline numbers; ``noise``
    carries the per-class LatencyStats spread that sizes statistical
    tolerances; ``attribution`` keeps only the heaviest
    :data:`TOP_ATTRIBUTION_ROWS` critical-path rows per class.
    """
    from repro.experiments.bench import METRIC_POLICY

    scalars = {name: float(getattr(result, name))
               for name in METRIC_POLICY}
    scalars.update({
        "cpu_utilization": float(result.cpu_utilization),
        "io_response_ms": float(result.io_response_ms),
        "tx_response_ms": float(result.tx_response_ms),
        "energy_wh": float(result.energy.total_wh),
        "n_measured": float(result.n_measured),
        "verified_reads": float(result.verified_reads),
    })
    breaches: Dict[str, int] = {}
    for breach in result.slo_breaches:
        name = breach.rule.name
        breaches[name] = breaches.get(name, 0) + 1
    snapshot: Dict[str, object] = {
        "scalars": scalars,
        "counters": {name: int(value) for name, value
                     in sorted(result.counters.items())},
        "slo": {"breaches": len(result.slo_breaches),
                "by_rule": dict(sorted(breaches.items()))},
        "noise": {},
        "attribution": [],
        "faults": None,
    }
    table = result.attribution
    if table is not None:
        snapshot["noise"] = {
            op: {"std_us": table.latency(op).std_us,
                 "n": table.latency(op).count}
            for op in table.ops}
        snapshot["attribution"] = table.top_rows(TOP_ATTRIBUTION_ROWS)
    report = result.faults
    if report is not None:
        snapshot["faults"] = [
            {"kind": o.kind, "at_request": o.at_request,
             "station": o.station, "degraded_s": o.degraded_s,
             "rebuild_blocks": o.rebuild_blocks,
             "data_loss_window_blocks": o.data_loss_window_blocks,
             "detected": o.detected, "skipped": o.skipped}
            for o in report.outcomes]
    return json.loads(json.dumps(snapshot))


def run_id_for(body: Dict[str, object]) -> str:
    """Deterministic content hash of a row's non-volatile fields."""
    canonical = json.dumps(body, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


@dataclass
class LedgerRow:
    """One recorded run, as stored."""

    seq: int
    run_id: str
    schema_version: int
    command: str
    spec: Dict[str, object]
    extra: Dict[str, object]
    provenance: Dict[str, object]
    metrics: Dict[str, object]
    volatile: Dict[str, object]

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "LedgerRow":
        return cls(**{f.name: doc[f.name] for f in fields(cls)})

    def to_json(self, canonical: bool = False) -> Dict[str, object]:
        doc = dict(vars(self))
        if canonical:
            del doc["volatile"]
        return doc

    @property
    def body(self) -> Dict[str, object]:
        """The hashed (non-volatile, non-identity) fields."""
        doc = self.to_json(canonical=True)
        del doc["seq"], doc["run_id"]
        return doc

    def describe(self) -> str:
        spec = self.spec
        seed = spec.get("seed")
        return (f"#{self.seq:<4} {self.run_id}  {self.command:<10} "
                f"{spec.get('workload') or '-':<9} "
                f"{spec.get('system') or '-':<9} "
                f"{spec.get('engine') or '-':<7} "
                f"{seed if seed is not None else '-'}")


def flatten_metrics(metrics: Dict[str, object]) -> Dict[str, float]:
    """Numeric leaves of a snapshot, keyed the way users type them:
    bare scalar names, ``counters.<name>``, ``slo.breaches``."""
    flat: Dict[str, float] = {}
    for name, value in metrics.get("scalars", {}).items():
        flat[name] = float(value)
    for name, value in metrics.get("counters", {}).items():
        flat[f"counters.{name}"] = float(value)
    flat["slo.breaches"] = float(
        metrics.get("slo", {}).get("breaches", 0))
    return flat


def metric_value(row: LedgerRow, metric: str) -> Optional[float]:
    """One metric of one row, or None when the row lacks it."""
    return flatten_metrics(row.metrics).get(metric)


def ledger_enabled() -> bool:
    """False when :data:`ENV_TOGGLE` disables recording."""
    flag = os.environ.get(ENV_TOGGLE, "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


def default_root() -> str:
    return os.environ.get(ENV_DIR) or DEFAULT_DIR


def default_ledger(no_ledger: bool = False,
                   root: Optional[str] = None):
    """The CLI's ledger: a writer on the default store, or None when
    opted out by flag or environment."""
    if no_ledger or not ledger_enabled():
        return None
    return LedgerWriter(root or default_root())


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


#: Bytes read per step when :func:`_tail` walks back from the end.
_TAIL_CHUNK = 1 << 16


class LedgerWriter:
    """Append-only run store: one JSON row per line of ``export.jsonl``.

    Concurrency: :meth:`record` and :meth:`prune` hold an exclusive
    ``flock`` on the lock file beside the store and open the store only
    under it, so concurrent recorders serialize and no writer appends
    to a file ``prune`` has replaced; an append is fsynced before the
    lock is released.  Readers take no lock: a final line without its
    newline is an append in flight, or one a crash cut short, and they
    skip it; :meth:`verify` reports it and the next :meth:`record`
    truncates it.

    ``clock`` injects the wall clock (tests pin it); it feeds only the
    ``volatile`` sub-object, never the run id.
    """

    def __init__(self, root: str = DEFAULT_DIR,
                 clock: Callable[[], float] = time.time) -> None:
        self.root = root
        self.path = os.path.join(root, EXPORT_NAME)
        self.lock_path = os.path.join(root, LOCK_NAME)
        self._clock = clock
        self.recorded = 0
        self.last_run_id: Optional[str] = None
        os.makedirs(root, exist_ok=True)

    @contextlib.contextmanager
    def _locked(self):
        """Hold the store's exclusive lock; closing the file drops it."""
        with open(self.lock_path, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            yield

    def _read(self) -> Tuple[List[str], bytes]:
        """The store's complete lines, and the torn tail after them."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return [], b""
        end = data.rfind(b"\n") + 1
        lines = data[:end].decode("utf-8", "replace").split("\n")[:-1]
        return lines, data[end:]

    def _parse(self, lines: Sequence[str],
               first: int = 1) -> List[LedgerRow]:
        """``lines`` as rows; ``first`` is the first one's line number."""
        rows = [_parse_row(line) for line in lines]
        if None in rows:
            raise ValueError(f"{self.path}:{first + rows.index(None)}: "
                             f"not a ledger row")
        return rows

    # -- appending ---------------------------------------------------------

    def record(self, result, command: str, spec=None, extra=None,
               host_wall_s: Optional[float] = None) -> str:
        """Append one run; returns its deterministic ``run_id``.

        ``spec`` (RunSpec or dict) pins the run's recipe; ``extra``
        carries command-specific context (figure name, sweep value,
        chaos scenario...).  ``host_wall_s`` is machine noise and goes
        to the ``volatile`` sub-object only.  Only the store's last row
        is read: it gives the next ``seq`` and must share this schema.
        """
        body = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "command": command,
            "spec": spec_payload(spec, result),
            "extra": json.loads(json.dumps(extra or {})),
            "provenance": {
                "git_sha": git_provenance()[0],
                "git_dirty": git_provenance()[1],
                "schema": schema_versions(),
                "host": host_fingerprint(),
                "sim_wall_s": result.wall_time_s,
                "sim_full_wall_s": result.full_wall_time_s,
            },
            "metrics": snapshot_result(result),
        }
        run_id = run_id_for(body)
        volatile = {"recorded_unix": round(float(self._clock()), 6),
                    "host_wall_s": host_wall_s}
        with self._locked(), open(self.path, "a+b") as handle:
            end, last = _tail(handle)
            seq = 1
            if last is not None:
                previous = _parse_row(last.decode("utf-8", "replace"))
                if previous is None:  # not a row: raise, naming its line
                    self._parse(self._read()[0])
                if previous.schema_version != LEDGER_SCHEMA_VERSION:
                    raise ValueError(
                        f"{self.path}: ledger schema "
                        f"{previous.schema_version} unsupported "
                        f"(expected {LEDGER_SCHEMA_VERSION})")
                seq = previous.seq + 1
            row = LedgerRow(seq=seq, run_id=run_id, volatile=volatile,
                            **body)
            handle.truncate(end)  # drops a torn append, if any
            line = json.dumps(row.to_json(), sort_keys=True) + "\n"
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        self.recorded += 1
        self.last_run_id = run_id
        return run_id

    # -- querying ----------------------------------------------------------

    def rows(self, filters: Optional[Dict[str, object]] = None,
             last: Optional[int] = None) -> List[LedgerRow]:
        """Matching rows in append (seq) order.

        ``filters`` keys are limited to :data:`FILTER_KEYS`; ``last``
        keeps only the newest N matches, and without filters only those
        N lines are parsed.
        """
        for key in filters or ():
            _check_filter_key(key)
        lines, _torn = self._read()
        first = 1
        if last is not None and not filters:
            first = max(0, len(lines) - last) + 1
            lines = lines[first - 1:]
        found = [row for row in self._parse(lines, first)
                 if _matches(row, filters)]
        if last is not None:
            found = found[max(0, len(found) - last):]
        return found

    def get(self, ref: str) -> LedgerRow:
        """One row by ``seq`` number or (prefix of a) ``run_id``.

        An all-digit ``ref`` is a ``seq`` first and, when no row has
        that ``seq``, a run-id prefix like any other (hex ids are often
        all digits in their first characters).  A prefix matching
        several *distinct* run ids is ambiguous and raises;
        re-recordings of the identical run share a run id, and the
        newest row wins.
        """
        ref = str(ref)
        rows = self.rows()
        if ref.isdigit():
            for row in rows:
                if row.seq == int(ref):
                    return row
        found = [row for row in reversed(rows)
                 if row.run_id.startswith(ref.lower())]
        if not found:
            raise KeyError(f"no ledger row with seq or run id {ref!r}")
        distinct = {row.run_id for row in found}
        if len(distinct) > 1:
            raise KeyError(
                f"run id prefix {ref!r} is ambiguous: "
                f"{', '.join(sorted(distinct))}")
        return found[0]

    def count(self) -> int:
        return len(self._read()[0])

    # -- maintenance -------------------------------------------------------

    def export(self, path: str, canonical: bool = False) -> int:
        """Write every row to ``path``, one per line.

        ``canonical=True`` drops the ``volatile`` sub-object — the
        byte-identical-across-jobs form CI diffs.  Returns the row
        count.
        """
        rows = self.rows()
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row.to_json(canonical),
                                        sort_keys=True) + "\n")
        return len(rows)

    def verify(self) -> List[str]:
        """Integrity issues, empty when the store is healthy.

        Reports rows of another schema version, every row whose content
        no longer hashes to its run id, and a torn final line.  A line
        that is not a row at all raises, naming it.
        """
        lines, torn = self._read()
        issues: List[str] = []
        for row in self._parse(lines):
            if row.schema_version != LEDGER_SCHEMA_VERSION:
                issues.append(f"seq {row.seq}: row schema "
                              f"{row.schema_version}")
            expected = run_id_for(row.body)
            if row.run_id != expected:
                issues.append(
                    f"seq {row.seq}: run_id {row.run_id} does not "
                    f"match content (expected {expected}) — row "
                    f"edited after append?")
        if torn:
            issues.append(
                f"{self.path}:{len(lines) + 1}: torn final line "
                f"({len(torn)} bytes, an append that never finished) — "
                f"the next record truncates it")
        return issues

    def prune(self, keep: int) -> int:
        """Drop all but the newest ``keep`` rows.

        The one deliberately destructive operation — retention, not
        editing: surviving lines are kept byte for byte.  They go to a
        temporary file that then replaces the store, so a crash
        mid-prune leaves the old store whole.  Returns the number of
        rows removed.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        with self._locked():
            lines, _torn = self._read()
            self._parse(lines)
            kept = lines[max(0, len(lines) - keep):]
            scratch = self.path + ".tmp"
            with open(scratch, "w", encoding="utf-8") as handle:
                handle.writelines(line + "\n" for line in kept)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, self.path)
        return len(lines) - len(kept)

    # -- analytics ---------------------------------------------------------

    def trend(self, metric: str,
              filters: Optional[Dict[str, object]] = None,
              last: int = 50,
              window: int = DEFAULT_WINDOW) -> "TrendReport":
        """The metric's history over matching runs, anomaly-flagged."""
        from repro.experiments.bench import METRIC_POLICY, noise_sem

        rows = [row for row in self.rows(filters, last=last)
                if metric_value(row, metric) is not None]
        values = [metric_value(row, metric) for row in rows]
        # Only latency metrics name a noise entry (a request class), and
        # only rows from profiled runs carry one.
        noise_key = METRIC_POLICY.get(metric, (None, None, None))[2]
        sems = [noise_sem(row.metrics.get("noise", {}).get(noise_key))
                for row in rows]
        anomalies = detect_anomalies(values, metric=metric,
                                     window=window, sems=sems)
        return TrendReport(metric=metric, rows=rows, values=values,
                           window=window, anomalies=anomalies,
                           filters=dict(filters or {}))


def _tail(handle) -> Tuple[int, Optional[bytes]]:
    """Where the store's complete lines end, and the last of them.

    Walks back from the end in growing chunks, so an append reads a
    few kilobytes however long the store is.  Bytes past the returned
    offset are a torn append; the line is None when no complete line
    exists.
    """
    size = handle.seek(0, os.SEEK_END)
    start = size
    while start > 0:
        start = max(0, start - _TAIL_CHUNK)
        handle.seek(start)
        data = handle.read(size - start)
        end = data.rfind(b"\n")
        if end < 0:
            continue
        begin = data.rfind(b"\n", 0, end) + 1
        if begin > 0 or start == 0:
            return start + end + 1, data[begin:end]
    return 0, None


def _parse_row(line: str) -> Optional[LedgerRow]:
    """One store line as a row, or None when it is not one."""
    try:
        return LedgerRow.from_json(json.loads(line))
    except (ValueError, KeyError, TypeError):
        return None


def _check_filter_key(key: str) -> None:
    if key not in FILTER_KEYS:
        raise ValueError(
            f"unknown filter {key!r}; filterable fields: "
            f"{', '.join(FILTER_KEYS)}")


def _matches(row: LedgerRow,
             filters: Optional[Dict[str, object]]) -> bool:
    """Every filter equals the row's field as text; null matches none."""
    for key, value in (filters or {}).items():
        actual = row.command if key == "command" else row.spec.get(key)
        if actual is None or str(actual) != str(value):
            return False
    return True


def parse_filters(pairs: Optional[Sequence[str]]) -> Dict[str, str]:
    """``["workload=tpcc", ...]`` -> dict, validating keys."""
    filters: Dict[str, str] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ValueError(
                f"bad filter {pair!r}; expected key=value with a key "
                f"from: {', '.join(FILTER_KEYS)}")
        _check_filter_key(key)
        filters[key] = value
    return filters


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDelta:
    """One metric that differs between two rows."""

    metric: str
    a: Optional[float]
    b: Optional[float]

    @property
    def rel(self) -> Optional[float]:
        """Relative change b vs a, None when undefined."""
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)

    def render(self) -> str:
        def fmt(value):
            return "-" if value is None else f"{value:>14.4f}"
        rel = self.rel
        rel_text = "" if rel is None else f"  {rel:+8.2%}"
        return (f"  {self.metric:<32} {fmt(self.a)} -> "
                f"{fmt(self.b)}{rel_text}")


@dataclass
class RunDiff:
    """Field-level diff of two runs plus provenance hints."""

    a: LedgerRow
    b: LedgerRow
    deltas: List[FieldDelta]
    unchanged: int
    hints: List[str]

    def render(self) -> str:
        lines = [f"a: {self.a.describe()}",
                 f"b: {self.b.describe()}", ""]
        if self.deltas:
            lines.append(f"{len(self.deltas)} metric(s) differ "
                         f"({self.unchanged} unchanged):")
            lines.extend(delta.render() for delta in self.deltas)
        else:
            lines.append(f"no metric differences "
                         f"({self.unchanged} compared)")
        lines.append("")
        lines.append("why might these differ?")
        lines.extend(f"  - {hint}" for hint in self.hints)
        return "\n".join(lines)


def provenance_hints(a: LedgerRow, b: LedgerRow) -> List[str]:
    """Human hints: which recipe/tree differences could explain a
    metric delta between two rows."""
    hints: List[str] = []
    sa, sb = a.spec, b.spec
    for key, why in (
            ("workload", "different workloads — not comparable runs"),
            ("system", "different architectures under test"),
            ("engine", "different wall-clock engines time the same "
                       "service stream differently"),
            ("n_requests", "different run lengths shift warmup and "
                           "steady-state mix"),
            ("scale", "different data-set scales change locality"),
            ("n_vms", "different VM counts change interleaving"),
            ("load", "different arrival models change queueing"),
    ):
        if sa.get(key) != sb.get(key):
            hints.append(f"{key} differs ({sa.get(key)!r} vs "
                         f"{sb.get(key)!r}): {why}")
    if sa.get("seed") != sb.get("seed"):
        hints.append(
            f"seed differs ({sa.get('seed')} vs {sb.get('seed')}): "
            f"expect run-to-run statistical shifts within the "
            f"METRIC_POLICY noise tolerances")
    if sa.get("config_overrides") != sb.get("config_overrides"):
        hints.append(
            f"config overrides differ ({sa.get('config_overrides')} "
            f"vs {sb.get('config_overrides')}): deliberate "
            f"configuration change")
    pa, pb = a.provenance, b.provenance
    if pa.get("git_sha") != pb.get("git_sha"):
        hints.append(
            f"trees differ ({_short(pa.get('git_sha'))} vs "
            f"{_short(pb.get('git_sha'))}): a code change is the "
            f"likely cause")
    if pa.get("git_dirty") != pb.get("git_dirty"):
        hints.append("one run used a dirty working tree — "
                     "uncommitted edits may not be reproducible")
    elif pa.get("git_dirty") and pb.get("git_dirty"):
        hints.append("both runs used dirty working trees — the "
                     "recorded SHA may not describe either")
    if pa.get("schema") != pb.get("schema"):
        hints.append(f"schema versions differ ({pa.get('schema')} vs "
                     f"{pb.get('schema')}): snapshots may not be "
                     f"field-compatible")
    if (pa.get("host") or {}).get("node") != \
            (pb.get("host") or {}).get("node"):
        hints.append("recorded on different hosts — virtual-clock "
                     "metrics are machine-independent, but check "
                     "volatile wall times separately")
    if a.command != b.command:
        hints.append(f"recorded by different commands "
                     f"({a.command} vs {b.command}) — warmup and "
                     f"load conventions differ per entry point")
    if not hints:
        hints.append("same recipe, seed, and tree — any metric drift "
                     "is behavioural (or a determinism bug worth "
                     "chasing)")
    return hints


def _short(sha: Optional[str]) -> str:
    return (sha or "unknown")[:10]


def diff_rows(a: LedgerRow, b: LedgerRow) -> RunDiff:
    """Field-level diff of two rows' metric snapshots."""
    flat_a = flatten_metrics(a.metrics)
    flat_b = flatten_metrics(b.metrics)
    deltas: List[FieldDelta] = []
    unchanged = 0
    for metric in sorted(set(flat_a) | set(flat_b)):
        va, vb = flat_a.get(metric), flat_b.get(metric)
        if va == vb:
            unchanged += 1
        else:
            deltas.append(FieldDelta(metric=metric, a=va, b=vb))
    deltas.sort(key=lambda d: (-(abs(d.rel) if d.rel is not None
                                 else math.inf), d.metric))
    return RunDiff(a=a, b=b, deltas=deltas, unchanged=unchanged,
                   hints=provenance_hints(a, b))


# ---------------------------------------------------------------------------
# Trend + anomaly detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Anomaly:
    """One trend point flagged by :func:`detect_anomalies`."""

    index: int
    value: float
    median: float
    #: Robust z-score; infinite when the history had zero spread.
    score: float
    #: The noise floor the deviation had to clear.
    floor: float


def detect_anomalies(values: Sequence[float],
                     metric: Optional[str] = None,
                     window: int = DEFAULT_WINDOW,
                     z: float = ANOMALY_Z,
                     sems: Optional[Sequence[Optional[float]]] = None,
                     ) -> List[Anomaly]:
    """Rolling median/MAD outliers in a metric history.

    Each value is judged against the previous ``window`` values (its
    *history*; the first :data:`MIN_HISTORY` points are never
    flagged): robust sigma is ``1.4826 x MAD`` and a point is
    anomalous when its deviation from the history median exceeds both
    the noise floor and ``z`` robust sigmas.  The floor is the bench
    harness's :func:`~repro.experiments.bench.tolerance` of the history
    median, with ``sem`` the history's median recorded standard error
    when ``sems`` is given.  A zero-spread history (identical-seed
    reruns) makes *any* above-floor deviation anomalous — the
    deterministic regression case.
    """
    from repro.experiments.bench import tolerance

    if window < MIN_HISTORY:
        raise ValueError(f"window must be >= {MIN_HISTORY}, "
                         f"got {window}")
    flagged: List[Anomaly] = []
    for index, value in enumerate(values):
        history = list(values[max(0, index - window):index])
        if len(history) < MIN_HISTORY:
            continue
        median = statistics.median(history)
        sigma = MAD_SCALE * statistics.median(
            [abs(h - median) for h in history])
        known = [s for s in (sems or ())[max(0, index - window):index]
                 if s is not None]
        floor = tolerance(metric, median,
                          statistics.median(known) if known else None)
        deviation = abs(value - median)
        if deviation <= floor:
            continue
        score = deviation / sigma if sigma > 0 else math.inf
        if score > z:
            flagged.append(Anomaly(index=index, value=value,
                                   median=median, score=score,
                                   floor=floor))
    return flagged


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """The classic eight-level block sparkline, newest right."""
    if not values:
        return ""
    values = list(values)[-width:]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_CHARS[3] * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(_SPARK_CHARS[int((v - lo) * scale)]
                   for v in values)


@dataclass
class TrendReport:
    """One metric's ledger history, rendered as a sparkline."""

    metric: str
    rows: List[LedgerRow]
    values: List[float]
    window: int
    anomalies: List[Anomaly]
    filters: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        scope = ", ".join(f"{k}={v}" for k, v
                          in sorted(self.filters.items()))
        title = f"{self.metric}" + (f" [{scope}]" if scope else "")
        if not self.values:
            return f"{title}: no matching runs carry this metric"
        lines = [
            f"{title}: {len(self.values)} run(s), "
            f"window {self.window}",
            f"  {sparkline(self.values)}",
            f"  min {min(self.values):.4f}  "
            f"median {statistics.median(self.values):.4f}  "
            f"max {max(self.values):.4f}",
        ]
        if self.anomalies:
            lines.append(f"  {len(self.anomalies)} anomalie(s):")
            for a in self.anomalies:
                row = self.rows[a.index]
                score = "inf" if math.isinf(a.score) \
                    else f"{a.score:.1f}"
                lines.append(
                    f"    seq {row.seq} (run {row.run_id}): "
                    f"{a.value:.4f} vs median {a.median:.4f} "
                    f"(robust z {score}, floor {a.floor:.4f})")
        else:
            lines.append("  no anomalies")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rendering helpers for the CLI
# ---------------------------------------------------------------------------


def render_rows(rows: Iterable[LedgerRow]) -> str:
    rows = list(rows)
    if not rows:
        return "(empty ledger)"
    header = (f"{'seq':<5} {'run_id':<16}  {'command':<10} "
              f"{'workload':<9} {'system':<9} {'engine':<7} seed")
    lines = [header, "-" * len(header)]
    lines.extend(row.describe() for row in rows)
    return "\n".join(lines)


def render_row(row: LedgerRow) -> str:
    return json.dumps(row.to_json(), sort_keys=True, indent=2)
