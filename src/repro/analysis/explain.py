"""Differential diagnosis of two runs (``repro explain``).

The one comparison of two runs: :func:`explain_ledger_rows` takes two
:class:`~repro.ledger.LedgerRow`\\ s and produces an
:class:`ExplainReport`, a ranked root-cause report — noise-aware scalar
and attribution diffs and a suspect ranking built from provenance
deltas, which names every recipe field the two rows disagree on.
:meth:`ExplainReport.render` is byte-deterministic for fixed inputs and
:meth:`ExplainReport.to_json` is the machine form tooling consumes.
See docs/OBSERVABILITY.md ("Explaining a delta") and the "debugging a
regression" walkthrough.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ledger import (METRIC_POLICY, SPEC_FIELDS, LedgerRow,
                          attribution_index, flatten_metrics, max_sem,
                          tolerance)

# ---------------------------------------------------------------------------
# Scalar diff
# ---------------------------------------------------------------------------
#
# The ledger's :func:`~repro.ledger.tolerance` applied to every metric
# :func:`~repro.ledger.flatten_metrics` reads from either row, with the
# larger of the two runs' standard errors — so ``repro explain`` and
# ``repro ledger trend``'s anomaly floor never disagree about whether a
# number "really" moved.


@dataclass(frozen=True)
class ScalarDelta:
    """One scalar/counter metric compared across two runs."""

    metric: str
    a: Optional[float]
    b: Optional[float]
    tolerance: float
    #: The *good* direction from METRIC_POLICY, or "" when unknown.
    direction: str

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def rel(self) -> Optional[float]:
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)

    @property
    def significant(self) -> bool:
        delta = self.delta
        return delta is not None and abs(delta) > self.tolerance

    @property
    def worsened(self) -> Optional[bool]:
        """Moved in the bad direction? None without a known policy."""
        delta = self.delta
        if delta is None or not self.direction:
            return None
        return delta < 0 if self.direction == "higher" else delta > 0

    def render(self) -> str:
        def fmt(value):
            return "-" if value is None else f"{value:>12.4f}"

        rel = self.rel
        rel_text = "" if rel is None else f"  {rel:+8.2%}"
        verdict = ""
        if self.worsened is True:
            verdict = "  WORSE"
        elif self.worsened is False:
            verdict = "  better"
        return (f"  {self.metric:<28} {fmt(self.a)} -> {fmt(self.b)}"
                f"{rel_text}  (tol {self.tolerance:.4f}){verdict}")


def diff_scalars(row_a: LedgerRow,
                 row_b: LedgerRow) -> List[ScalarDelta]:
    """Every metric either row carries, compared; sorted by absolute
    relative movement (missing-on-one-side first, then by name)."""
    flat_a = flatten_metrics(row_a.metrics)
    flat_b = flatten_metrics(row_b.metrics)
    deltas: List[ScalarDelta] = []
    for metric in sorted(set(flat_a) | set(flat_b)):
        a, b = flat_a.get(metric), flat_b.get(metric)
        direction, _rel, noise_key = METRIC_POLICY.get(metric,
                                                       ("", 0.0, None))
        deltas.append(ScalarDelta(
            metric=metric, a=a, b=b,
            tolerance=tolerance(metric, a or 0.0,
                                max_sem((row_a, row_b), noise_key)),
            direction=direction))
    deltas.sort(key=lambda d: (
        -(abs(d.rel) if d.rel is not None
          else float("inf") if d.delta is None or d.delta else 0.0),
        d.metric))
    return deltas


# ---------------------------------------------------------------------------
# Attribution diff
# ---------------------------------------------------------------------------
#
# Which ``(device, phase)`` pairs moved.  Rows come from
# :meth:`repro.sim.profile.AttributionTable.to_rows` (a ledger row keeps
# the heaviest :data:`repro.ledger.TOP_ATTRIBUTION_ROWS` per class).
# Significance is noise-aware: a row's mean contribution must move by
# more than :func:`repro.ledger.tolerance` for the class's mean-latency
# metric, with ``sem`` the larger recorded standard error of the two
# runs, and by at least :data:`EPSILON_US` — so an interleaving-level
# wobble never becomes "evidence".

#: Rows below this mean contribution (µs) never count as significant on
#: their own — they round to zero in the flame export anyway.
EPSILON_US = 1.0

#: METRIC_POLICY metric whose relative tolerance sizes a class's row
#: tolerance, per operation class.
_CLASS_METRIC = {"read": "read_mean_us", "write": "write_mean_us"}

#: Attribution rows in the :meth:`repro.sim.profile.AttributionTable.
#: to_rows` shape, as a ledger row's ``metrics["attribution"]`` keeps.
_Rows = Iterable[Dict[str, object]]


@dataclass(frozen=True)
class AttributionDelta:
    """One ``(op, device, phase)`` row compared across two runs."""

    op: str
    device: str
    phase: str
    #: Mean contribution per request of the class (µs); 0.0 when the
    #: run has no such row.
    a_mean_us: float
    b_mean_us: float
    #: Total attributed time (µs) on each side — the flame-diff counts.
    a_total_us: float
    b_total_us: float
    tolerance_us: float
    #: Present in only one run's rows (always notable when above
    #: :data:`EPSILON_US`): "" | "a" | "b".
    only_in: str

    @property
    def delta_us(self) -> float:
        return self.b_mean_us - self.a_mean_us

    @property
    def significant(self) -> bool:
        if max(abs(self.a_mean_us), abs(self.b_mean_us)) < EPSILON_US:
            return False
        if self.only_in:
            return True
        return abs(self.delta_us) > self.tolerance_us

    def render(self) -> str:
        note = f"  (only in {self.only_in})" if self.only_in else ""
        return (f"  {self.op:<8} {self.device:<8} {self.phase:<14} "
                f"{self.a_mean_us:>10.2f} -> {self.b_mean_us:>10.2f} us"
                f"  ({self.delta_us:+10.2f}, "
                f"tol {self.tolerance_us:.2f}){note}")


def diff_attribution(row_a: LedgerRow,
                     row_b: LedgerRow) -> List[AttributionDelta]:
    """Every attribution row either ledger row carries, compared;
    sorted by absolute mean movement (then key, for byte-determinism on
    ties)."""
    items_a = attribution_index(row_a.metrics.get("attribution", []))
    items_b = attribution_index(row_b.metrics.get("attribution", []))
    deltas: List[AttributionDelta] = []
    for key in sorted(set(items_a) | set(items_b)):
        op, device, phase = key
        a_mean, a_total = items_a.get(key, (0.0, 0.0))
        b_mean, b_total = items_b.get(key, (0.0, 0.0))
        only_in = "" if key in items_a and key in items_b else (
            "a" if key in items_a else "b")
        deltas.append(AttributionDelta(
            op=op, device=device, phase=phase,
            a_mean_us=a_mean, b_mean_us=b_mean,
            a_total_us=a_total, b_total_us=b_total,
            tolerance_us=max(tolerance(_CLASS_METRIC.get(op), a_mean,
                                       max_sem((row_a, row_b), op)),
                             EPSILON_US),
            only_in=only_in))
    deltas.sort(key=lambda d: (-abs(d.delta_us), d.op, d.device,
                               d.phase))
    return deltas


# ---------------------------------------------------------------------------
# Flame diff
# ---------------------------------------------------------------------------


def flame_diff_stacks(items_a: _Rows, items_b: _Rows
                      ) -> Dict[str, Tuple[int, int]]:
    """``{stack: (a_us, b_us)}`` over two runs' attribution rows.

    Stacks are ``op;device;phase``, counts integer microseconds of
    total attributed time; stacks rounding to zero on both sides are
    dropped, mirroring :func:`repro.sim.profile.export_folded`.
    """
    totals_a = attribution_index(items_a)
    totals_b = attribution_index(items_b)
    stacks: Dict[str, Tuple[int, int]] = {}
    for key in sorted(set(totals_a) | set(totals_b)):
        a_us = round(totals_a.get(key, (0.0, 0.0))[1])
        b_us = round(totals_b.get(key, (0.0, 0.0))[1])
        if a_us >= 1 or b_us >= 1:
            stacks[";".join(key)] = (a_us, b_us)
    return stacks


def export_flame_diff(items_a: _Rows, items_b: _Rows, path: str) -> int:
    """Write ``stack count_a count_b`` lines to ``path``, sorted by
    stack: the two-column folded format ``difffolded.pl`` produces.

    The output feeds ``flamegraph.pl --negate`` and speedscope's
    left-heavy diff view directly (blue where run B spends less, red
    where it spends more); returns the number of lines written.
    """
    stacks = flame_diff_stacks(items_a, items_b)
    with open(path, "w", encoding="utf-8") as handle:
        for key in sorted(stacks):
            a_us, b_us = stacks[key]
            handle.write(f"{key} {a_us} {b_us}\n")
    return len(stacks)


# ---------------------------------------------------------------------------
# Suspect ranking
# ---------------------------------------------------------------------------
#
# From "what moved" to "what probably caused it": combines provenance
# deltas (recipe, seed, config overrides, git state) with the
# significant metric and attribution findings into a ranked hypothesis
# list.  Scores are fixed per cause kind — this is a deterministic
# triage order encoding how conclusive each kind of evidence is, not a
# fitted probability: an explicit config override outranks a tree
# change outranks a dirty tree outranks a reseed, and purely
# behavioural shifts (same recipe, same tree, numbers moved anyway) rank
# last because they point at a determinism bug rather than a cause the
# ledger recorded.

#: Fixed score per cause kind (the triage order; doc-parity listed in
#: docs/OBSERVABILITY.md).
SUSPECT_SCORES = {
    "incomparable": 1.0,
    "config_override": 0.95,
    "code_change": 0.8,
    "dirty_tree": 0.6,
    "seed_change": 0.5,
    "behavioural_shift": 0.4,
}

#: Evidence lines kept per suspect (the heaviest movers).
MAX_EVIDENCE = 5

#: The recipe two comparable runs share: every spec field but the two
#: that are causes of their own.
RECIPE_FIELDS = tuple(key for key in SPEC_FIELDS
                      if key not in ("seed", "config_overrides"))


@dataclass(frozen=True)
class Suspect:
    """One ranked root-cause hypothesis."""

    cause: str
    score: float
    summary: str
    evidence: List[str]

    def render(self, rank: int) -> str:
        lines = [f"{rank}. [{self.score:.2f}] {self.summary}"]
        lines.extend(f"     - {line}" for line in self.evidence)
        return "\n".join(lines)


def _metric_evidence(sig_scalars: List[ScalarDelta],
                     sig_attr: List[AttributionDelta]) -> List[str]:
    """The heaviest significant movers, metric lines first.

    When attribution rows moved too, up to two evidence slots are
    reserved for them — the (device, phase) rows are what localise a
    scalar regression, so they must survive even when many scalars
    moved.
    """
    reserved = min(len(sig_attr), 2)
    evidence = [d.render().strip()
                for d in sig_scalars[:MAX_EVIDENCE - reserved]]
    room = MAX_EVIDENCE - len(evidence)
    evidence.extend(d.render().strip() for d in sig_attr[:room])
    return evidence


def rank_suspects(row_a: LedgerRow, row_b: LedgerRow,
                  scalar_deltas: List[ScalarDelta],
                  attribution_deltas: List[AttributionDelta]
                  ) -> List[Suspect]:
    """The ranked hypothesis list, highest score first.

    With no significant metric or attribution movement, provenance
    differences alone are *not* suspects (a reseed that changed
    nothing needs no explanation) — the report then says "no
    significant deltas".
    """
    sig_scalars = [d for d in scalar_deltas if d.significant]
    sig_attr = [d for d in attribution_deltas if d.significant]
    moved = bool(sig_scalars or sig_attr)
    sa, sb = row_a.spec, row_b.spec
    suspects: List[Suspect] = []

    mismatched = [key for key in RECIPE_FIELDS
                  if sa.get(key) != sb.get(key)]
    if mismatched:
        suspects.append(Suspect(
            cause="incomparable", score=SUSPECT_SCORES["incomparable"],
            summary=("runs are not comparable: "
                     + ", ".join(f"{key} {sa.get(key)!r} vs "
                                 f"{sb.get(key)!r}"
                                 for key in mismatched)),
            evidence=["every metric delta below reflects the recipe "
                      "difference, not a regression"]))

    if not moved:
        return suspects

    overrides_a = sa.get("config_overrides")
    overrides_b = sb.get("config_overrides")
    if overrides_a != overrides_b:
        suspects.append(Suspect(
            cause="config_override",
            score=SUSPECT_SCORES["config_override"],
            summary=(f"config overrides differ: {overrides_a!r} vs "
                     f"{overrides_b!r}"),
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    pa, pb = row_a.provenance, row_b.provenance
    sha_a, sha_b = pa.get("git_sha"), pb.get("git_sha")
    if (sha_a or sha_b) and sha_a != sha_b:
        suspects.append(Suspect(
            cause="code_change", score=SUSPECT_SCORES["code_change"],
            summary=(f"trees differ: {str(sha_a or 'unknown')[:10]} vs "
                     f"{str(sha_b or 'unknown')[:10]}"),
            evidence=_metric_evidence(sig_scalars, sig_attr)))
    if pa.get("git_dirty") or pb.get("git_dirty"):
        which = "both runs" if pa.get("git_dirty") \
            and pb.get("git_dirty") else \
            ("run a" if pa.get("git_dirty") else "run b")
        suspects.append(Suspect(
            cause="dirty_tree", score=SUSPECT_SCORES["dirty_tree"],
            summary=f"{which} used a dirty working tree — "
                    f"uncommitted edits may explain the movement",
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    if sa.get("seed") != sb.get("seed"):
        suspects.append(Suspect(
            cause="seed_change", score=SUSPECT_SCORES["seed_change"],
            summary=(f"seed differs ({sa.get('seed')} vs "
                     f"{sb.get('seed')}): deltas beyond the noise "
                     f"tolerance under a reseed point at "
                     f"seed-sensitive behaviour"),
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    if not suspects:
        suspects.append(Suspect(
            cause="behavioural_shift",
            score=SUSPECT_SCORES["behavioural_shift"],
            summary="same recipe, seed and tree, yet metrics moved "
                    "beyond tolerance — a behavioural shift (or a "
                    "determinism bug worth chasing)",
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    suspects.sort(key=lambda s: (-s.score, s.cause))
    return suspects


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

#: Rows shown per section in the rendered report (the full lists live
#: in the JSON form).
MAX_RENDERED_ROWS = 12


@dataclass
class ExplainReport:
    """One differential diagnosis of two runs."""

    row_a: LedgerRow
    row_b: LedgerRow
    scalar_deltas: List[ScalarDelta]
    attribution_deltas: List[AttributionDelta]
    suspects: List[Suspect]

    @property
    def significant(self) -> bool:
        """Did anything move beyond the noise-aware tolerances?"""
        return any(d.significant for d in self.scalar_deltas) \
            or any(d.significant for d in self.attribution_deltas)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The deterministic human-readable report."""
        lines = [f"explain: {_label(self.row_a)} (ledger)"
                 f" vs {_label(self.row_b)} (ledger)",
                 ""]
        if not self.significant:
            lines.append("no significant deltas: every metric and "
                         "attribution row is within its noise-aware "
                         "tolerance")
            lines.append(f"  ({len(self.scalar_deltas)} metric(s) and "
                         f"{len(self.attribution_deltas)} attribution "
                         f"row(s) compared)")
            # Only a recipe difference is a suspect without movement.
            lines.extend(f"  but {s.summary}" for s in self.suspects)
            return "\n".join(lines)

        lines.append(f"suspects ({len(self.suspects)}):")
        for rank, suspect in enumerate(self.suspects, start=1):
            lines.append(suspect.render(rank))
        lines.append("")
        lines += _significant_section("metrics", self.scalar_deltas, "")
        lines.append("")
        lines += _significant_section(
            "attribution rows", self.attribution_deltas,
            "  (none — the movement is not attribution-visible)")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """JSON-ready document (sorted keys when dumped; stable)."""
        return {
            "a": {"label": _label(self.row_a), "source": "ledger"},
            "b": {"label": _label(self.row_b), "source": "ledger"},
            "significant": self.significant,
            "suspects": [asdict(s) for s in self.suspects],
            "scalars": [
                {**asdict(d), "delta": d.delta, "rel": d.rel,
                 "significant": d.significant, "worsened": d.worsened}
                for d in self.scalar_deltas],
            "attribution": [
                {"op": d.op, "device": d.device, "phase": d.phase,
                 "a_mean_us": d.a_mean_us, "b_mean_us": d.b_mean_us,
                 "delta_us": d.delta_us,
                 "tolerance_us": d.tolerance_us,
                 "only_in": d.only_in, "significant": d.significant}
                for d in self.attribution_deltas],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def _significant_section(title: str, deltas, empty: str) -> List[str]:
    """A report section: the heading ``significant <title> (n of m):``
    and the first :data:`MAX_RENDERED_ROWS` significant deltas, or
    ``empty`` when none is."""
    sig = [d for d in deltas if d.significant]
    lines = [f"significant {title} ({len(sig)} of {len(deltas)}):"]
    lines.extend(d.render() for d in sig[:MAX_RENDERED_ROWS])
    if len(sig) > MAX_RENDERED_ROWS:
        lines.append(f"  ... {len(sig) - MAX_RENDERED_ROWS}"
                     f" more (see --json)")
    if not sig and empty:
        lines.append(empty)
    return lines


def _label(row: LedgerRow) -> str:
    return f"#{row.seq} {row.run_id}"


def explain_ledger_rows(row_a: LedgerRow,
                        row_b: LedgerRow) -> ExplainReport:
    """Run the full differential diagnosis over two ledger rows."""
    scalar_deltas = diff_scalars(row_a, row_b)
    attribution_deltas = diff_attribution(row_a, row_b)
    suspects = rank_suspects(row_a, row_b, scalar_deltas,
                             attribution_deltas)
    return ExplainReport(row_a=row_a, row_b=row_b,
                         scalar_deltas=scalar_deltas,
                         attribution_deltas=attribution_deltas,
                         suspects=suspects)
