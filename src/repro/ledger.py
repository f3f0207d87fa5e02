"""Persistent run ledger: every experiment leaves a provenance trail.

Six PRs of observability produce rich *point-in-time* artefacts —
traces, windowed series, bench documents, chaos verdicts — but each
command scatters its own output file and nothing survives across
invocations, so "did loadtest p99 drift since last week?" means manual
JSON spelunking.  This module is the longitudinal layer: an
append-only, schema-versioned run store under ``.repro-ledger/`` that
every entry point (``figure``, ``sweep``, ``bench``, ``loadtest``,
``chaos``, ``monitor`` and plain :func:`~repro.experiments.runner.
run_benchmark`) records into through one
:meth:`LedgerWriter.record` hook on a
:class:`~repro.experiments.runner.RunResult`.

Each row carries full provenance — the declarative run spec (workload,
system, engine, seed, config overrides, load), git SHA + dirty flag,
schema versions, a host fingerprint and the run's virtual wall times —
plus a curated metric snapshot: the :data:`~repro.experiments.bench.
METRIC_POLICY` scalars, key counters, SLO breach summary, the heaviest
critical-path attribution rows and fault outcomes.  On top of the
store sit cross-run analytics: field-level :func:`diff_rows` with
provenance-aware "why might these differ" hints, sparkline trends, and
a rolling-window anomaly detector (:func:`detect_anomalies`) using a
robust median/MAD z-score with noise floors borrowed from the bench
harness's tolerances.

Storage is SQLite (``ledger.db``, the queryable source of truth) plus
a JSONL mirror (``export.jsonl``, one row per line) for grep/jq and CI
artifacts.  Determinism contract: a run's ``run_id`` is a content hash
of its non-volatile fields, machine-local clocks live in a separate
``volatile`` sub-object, and a *canonical* export drops ``volatile``
entirely — so ``--jobs N`` produces byte-identical canonical exports
for any N (results are recorded in submission order by the parent
process; workers never write).

Recording is opt-out (``--no-ledger`` / ``REPRO_LEDGER=0``) and
library use defaults to no ledger (``None``, like the tracer, the
monitor and the profiler).  Schema, field
tables, anomaly math and retention are documented in docs/LEDGER.md
(doc-parity tested by tests/test_ledger_docs.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import sqlite3
import subprocess
import time
from dataclasses import dataclass, field, is_dataclass, asdict
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

#: Version of the row layout (documented in docs/LEDGER.md, doc-parity
#: tested).  Bump on any breaking change to the keys below; the store
#: refuses to mix schema versions.
LEDGER_SCHEMA_VERSION = 1

#: Default store directory, overridable via :data:`ENV_DIR`.
DEFAULT_DIR = ".repro-ledger"
DB_NAME = "ledger.db"
EXPORT_NAME = "export.jsonl"

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
#: Relative-tolerance floor for metrics outside METRIC_POLICY.
DEFAULT_REL_TOL = 0.05
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
        return cls(**{f: doc[f] for f in (
            "seq", "run_id", "schema_version", "command", "spec",
            "extra", "provenance", "metrics", "volatile")})

    def to_json(self, canonical: bool = False) -> Dict[str, object]:
        doc = {
            "seq": self.seq,
            "run_id": self.run_id,
            "schema_version": self.schema_version,
            "command": self.command,
            "spec": self.spec,
            "extra": self.extra,
            "provenance": self.provenance,
            "metrics": self.metrics,
            "volatile": self.volatile,
        }
        if canonical:
            del doc["volatile"]
        return doc

    @property
    def body(self) -> Dict[str, object]:
        """The hashed (non-volatile, non-identity) fields."""
        return {"schema_version": self.schema_version,
                "command": self.command, "spec": self.spec,
                "extra": self.extra, "provenance": self.provenance,
                "metrics": self.metrics}

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


def noise_sem(row: LedgerRow, metric: str) -> Optional[float]:
    """Standard error of ``metric``'s request class, when recorded.

    Only latency metrics have a noise entry (keyed by METRIC_POLICY's
    noise key), and only rows from profiled runs carry one.
    """
    from repro.experiments.bench import METRIC_POLICY

    policy = METRIC_POLICY.get(metric)
    if policy is None or policy[2] is None:
        return None
    entry = row.metrics.get("noise", {}).get(policy[2])
    if not entry:
        return None
    n = max(1.0, float(entry.get("n", 1.0)))
    return float(entry.get("std_us", 0.0)) / math.sqrt(n)


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


_CREATE_META = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
)"""

_CREATE_RUNS = """
CREATE TABLE IF NOT EXISTS runs (
    seq INTEGER PRIMARY KEY,
    run_id TEXT NOT NULL,
    command TEXT NOT NULL,
    workload TEXT,
    system TEXT,
    engine TEXT,
    seed TEXT,
    created_unix REAL NOT NULL,
    row_json TEXT NOT NULL
)"""


class LedgerWriter:
    """Append-only run store: SQLite + JSONL mirror under ``root``.

    Concurrency: every append runs inside a ``BEGIN IMMEDIATE``
    transaction, and the export line is written while that write lock
    is held — so concurrent recorders (e.g. two CLI invocations)
    serialize cleanly instead of interleaving.  A crash between the
    insert and the append leaves a row/export parity gap that
    :meth:`verify` reports and :meth:`export` repairs.

    ``clock`` injects the wall clock (tests pin it); it feeds only the
    ``volatile`` sub-object, never the run id.
    """

    def __init__(self, root: str = DEFAULT_DIR,
                 clock: Callable[[], float] = time.time) -> None:
        self.root = root
        self.db_path = os.path.join(root, DB_NAME)
        self.export_path = os.path.join(root, EXPORT_NAME)
        self._clock = clock
        self.recorded = 0
        self.last_run_id: Optional[str] = None
        os.makedirs(root, exist_ok=True)
        with contextlib.closing(self._connect()) as conn, conn:
            conn.execute(_CREATE_META)
            conn.execute(_CREATE_RUNS)
            conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_runs_run_id "
                "ON runs (run_id)")
            conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_runs_filter "
                "ON runs (command, workload, system, engine)")
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES "
                    "('schema_version', ?)",
                    (str(LEDGER_SCHEMA_VERSION),))
            elif int(row[0]) != LEDGER_SCHEMA_VERSION:
                raise ValueError(
                    f"{self.db_path}: ledger schema {row[0]} "
                    f"unsupported (expected {LEDGER_SCHEMA_VERSION})")

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.db_path, timeout=30.0)
        conn.execute("PRAGMA busy_timeout = 30000")
        return conn

    # -- appending ---------------------------------------------------------

    def record(self, result, command: str, spec=None, extra=None,
               host_wall_s: Optional[float] = None) -> str:
        """Append one run; returns its deterministic ``run_id``.

        ``spec`` (RunSpec or dict) pins the run's recipe; ``extra``
        carries command-specific context (figure name, sweep value,
        chaos scenario...).  ``host_wall_s`` is machine noise and goes
        to the ``volatile`` sub-object only.
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
        spec_doc = body["spec"]
        with contextlib.closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                seq = conn.execute(
                    "SELECT COALESCE(MAX(seq), 0) + 1 FROM runs"
                ).fetchone()[0]
                row = LedgerRow(seq=seq, run_id=run_id,
                                volatile=volatile, **body)
                conn.execute(
                    "INSERT INTO runs (seq, run_id, command, workload,"
                    " system, engine, seed, created_unix, row_json) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (seq, run_id, command, spec_doc.get("workload"),
                     spec_doc.get("system"), spec_doc.get("engine"),
                     _seed_text(spec_doc.get("seed")),
                     volatile["recorded_unix"],
                     _dumps(row.to_json())))
                with open(self.export_path, "a",
                          encoding="utf-8") as handle:
                    handle.write(_dumps(row.to_json()) + "\n")
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        self.recorded += 1
        self.last_run_id = run_id
        return run_id

    # -- querying ----------------------------------------------------------

    def rows(self, filters: Optional[Dict[str, object]] = None,
             last: Optional[int] = None) -> List[LedgerRow]:
        """Matching rows in append (seq) order.

        ``filters`` keys are limited to :data:`FILTER_KEYS`; ``last``
        keeps only the newest N matches.
        """
        where, params = _where_clause(filters)
        sql = f"SELECT row_json FROM runs{where} ORDER BY seq"
        if last is not None:
            sql = (f"SELECT row_json FROM (SELECT seq, row_json FROM "
                   f"runs{where} ORDER BY seq DESC LIMIT ?) "
                   f"ORDER BY seq")
            params = params + [int(last)]
        with contextlib.closing(self._connect()) as conn:
            found = conn.execute(sql, params).fetchall()
        return [LedgerRow.from_json(json.loads(text))
                for (text,) in found]

    def get(self, ref: str) -> LedgerRow:
        """One row by ``seq`` number or (prefix of a) ``run_id``.

        An all-digit ``ref`` is a ``seq`` first and, when no row has
        that ``seq``, a run-id prefix like any other (hex ids are often
        all digits in their first characters).  A prefix matching
        several *distinct* run ids is ambiguous and raises;
        re-recordings of the identical run share a run id, and the
        newest row wins.
        """
        with contextlib.closing(self._connect()) as conn:
            if str(ref).isdigit():
                found = conn.execute(
                    "SELECT row_json FROM runs WHERE seq = ?",
                    (int(ref),)).fetchall()
                if found:
                    return LedgerRow.from_json(json.loads(found[0][0]))
            found = conn.execute(
                "SELECT run_id, row_json FROM runs WHERE run_id "
                "LIKE ? ORDER BY seq DESC",
                (str(ref) + "%",)).fetchall()
        if not found:
            raise KeyError(f"no ledger row with seq or run id {ref!r}")
        distinct = {run_id for run_id, _ in found}
        if len(distinct) > 1:
            raise KeyError(
                f"run id prefix {ref!r} is ambiguous: "
                f"{', '.join(sorted(distinct))}")
        return LedgerRow.from_json(json.loads(found[0][1]))

    def count(self) -> int:
        with contextlib.closing(self._connect()) as conn:
            return conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0]

    # -- maintenance -------------------------------------------------------

    def export(self, path: Optional[str] = None,
               canonical: bool = False) -> int:
        """(Re)write the JSONL mirror from the database.

        ``canonical=True`` drops the ``volatile`` sub-object — the
        byte-identical-across-jobs form CI diffs.  Returns the row
        count.
        """
        rows = self.rows()
        path = path or self.export_path
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(_dumps(row.to_json(canonical)) + "\n")
        return len(rows)

    def verify(self) -> List[str]:
        """Integrity issues, empty when the store is healthy.

        Checks the meta schema version, per-row schema versions,
        recomputes every content-hash run id, and compares the JSONL
        mirror line by line against the database (row/export parity —
        the crash window :meth:`record` documents shows up here).
        """
        issues: List[str] = []
        with contextlib.closing(self._connect()) as conn:
            meta = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if meta is None:
                issues.append("meta: schema_version missing")
            elif int(meta[0]) != LEDGER_SCHEMA_VERSION:
                issues.append(
                    f"meta: schema_version {meta[0]} != "
                    f"{LEDGER_SCHEMA_VERSION}")
        rows = self.rows()
        for row in rows:
            if row.schema_version != LEDGER_SCHEMA_VERSION:
                issues.append(f"seq {row.seq}: row schema "
                              f"{row.schema_version}")
            expected = run_id_for(row.body)
            if row.run_id != expected:
                issues.append(
                    f"seq {row.seq}: run_id {row.run_id} does not "
                    f"match content (expected {expected}) — row "
                    f"edited after append?")
        if not os.path.exists(self.export_path):
            issues.append(f"{self.export_path}: missing (run "
                          f"'repro ledger export' to rebuild)")
            return issues
        with open(self.export_path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if len(lines) != len(rows):
            issues.append(
                f"export has {len(lines)} line(s) but the database "
                f"has {len(rows)} row(s) — rebuild with "
                f"'repro ledger export'")
        for row, line in zip(rows, lines):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                issues.append(f"export line for seq {row.seq}: "
                              f"not valid JSON")
                continue
            if doc.get("seq") != row.seq or \
                    doc.get("run_id") != row.run_id:
                issues.append(
                    f"export line {doc.get('seq')}/{doc.get('run_id')}"
                    f" does not match database row {row.seq}/"
                    f"{row.run_id}")
                continue
            mirrored = dict(doc)
            mirrored.pop("volatile", None)
            if mirrored != row.to_json(canonical=True):
                issues.append(f"export line for seq {row.seq}: "
                              f"content diverges from database")
        return issues

    def prune(self, keep: int) -> int:
        """Drop all but the newest ``keep`` rows; rewrite the export.

        The one deliberately destructive operation — retention, not
        editing: surviving rows are untouched and keep their run ids.
        Returns the number of rows removed.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        with contextlib.closing(self._connect()) as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                removed = conn.execute(
                    "DELETE FROM runs WHERE seq NOT IN "
                    "(SELECT seq FROM runs ORDER BY seq DESC LIMIT ?)",
                    (keep,)).rowcount
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        self.export()
        return removed

    # -- analytics ---------------------------------------------------------

    def diff(self, ref_a: str, ref_b: str) -> "RunDiff":
        return diff_rows(self.get(ref_a), self.get(ref_b))

    def explain(self, ref_a: str, ref_b: str):
        """Deep differential diagnosis of two recorded runs: the
        :mod:`repro.analysis.explain` engine over both rows' snapshots
        (``repro ledger diff --deep`` / ``repro explain``).  Returns
        an :class:`~repro.analysis.explain.ExplainReport`."""
        from repro.analysis.explain import explain_ledger_rows

        return explain_ledger_rows(self.get(ref_a), self.get(ref_b))

    def trend(self, metric: str,
              filters: Optional[Dict[str, object]] = None,
              last: int = 50,
              window: int = DEFAULT_WINDOW) -> "TrendReport":
        """The metric's history over matching runs, anomaly-flagged."""
        rows = [row for row in self.rows(filters, last=last)
                if metric_value(row, metric) is not None]
        values = [metric_value(row, metric) for row in rows]
        sems = [noise_sem(row, metric) for row in rows]
        anomalies = detect_anomalies(values, metric=metric,
                                     window=window, sems=sems)
        return TrendReport(metric=metric, rows=rows, values=values,
                           window=window, anomalies=anomalies,
                           filters=dict(filters or {}))


def _seed_text(seed) -> Optional[str]:
    return None if seed is None else str(seed)


def _dumps(doc: Dict[str, object]) -> str:
    return json.dumps(doc, sort_keys=True)


def _where_clause(filters: Optional[Dict[str, object]]
                  ) -> Tuple[str, List[object]]:
    if not filters:
        return "", []
    clauses, params = [], []
    for key, value in sorted(filters.items()):
        if key not in FILTER_KEYS:
            raise ValueError(
                f"unknown filter {key!r}; filterable fields: "
                f"{', '.join(FILTER_KEYS)}")
        clauses.append(f"{key} = ?")
        params.append(str(value))
    return " WHERE " + " AND ".join(clauses), params


def parse_filters(pairs: Optional[Sequence[str]]) -> Dict[str, str]:
    """``["workload=tpcc", ...]`` -> dict, validating keys."""
    filters: Dict[str, str] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ValueError(
                f"bad filter {pair!r}; expected key=value with a key "
                f"from: {', '.join(FILTER_KEYS)}")
        if key not in FILTER_KEYS:
            raise ValueError(
                f"unknown filter {key!r}; filterable fields: "
                f"{', '.join(FILTER_KEYS)}")
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


def _median(values: Sequence[float]) -> float:
    ranked = sorted(values)
    n = len(ranked)
    mid = n // 2
    if n % 2:
        return ranked[mid]
    return (ranked[mid - 1] + ranked[mid]) / 2.0


def rel_tol_for(metric: str) -> float:
    """METRIC_POLICY's relative tolerance, or the default floor."""
    from repro.experiments.bench import METRIC_POLICY

    policy = METRIC_POLICY.get(metric)
    return policy[1] if policy is not None else DEFAULT_REL_TOL


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
    the noise floor and ``z`` robust sigmas.  The floor reuses the
    bench harness's tolerances — ``max(rel_tol x |median|, NOISE_Z x
    sem)`` with ``rel_tol`` from METRIC_POLICY (:func:`rel_tol_for`)
    and ``sem`` the history's median recorded standard error, when
    ``sems`` is given.  A zero-spread history (identical-seed reruns)
    makes *any* above-floor deviation anomalous — the deterministic
    regression case.
    """
    from repro.experiments.bench import NOISE_Z

    if window < MIN_HISTORY:
        raise ValueError(f"window must be >= {MIN_HISTORY}, "
                         f"got {window}")
    rel_tol = rel_tol_for(metric) if metric is not None \
        else DEFAULT_REL_TOL
    flagged: List[Anomaly] = []
    for index, value in enumerate(values):
        history = list(values[max(0, index - window):index])
        if len(history) < MIN_HISTORY:
            continue
        median = _median(history)
        sigma = MAD_SCALE * _median(
            [abs(h - median) for h in history])
        floor = rel_tol * abs(median)
        if sems is not None:
            known = [s for s in sems[max(0, index - window):index]
                     if s is not None]
            if known:
                floor = max(floor, NOISE_Z * _median(known))
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
            f"median {_median(self.values):.4f}  "
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
