"""Text rendering of measured-vs-paper comparison tables."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _cell(value: Optional[float]) -> str:
    return f"{value:>14.2f}" if value is not None else f"{'-':>14}"


def comparison_table(title: str, systems: Sequence[str],
                     measured: Dict[str, float], paper: Dict[str, float],
                     unit: str, better: str) -> str:
    """One figure's table: a row per system, measured next to paper.

    ``better`` ("higher" or "lower") is printed as a reading aid, echoing
    the paper's axis annotations like "the lower the better".
    """
    lines: List[str] = [
        title, "=" * len(title),
        f"{'system':<12} {'measured':>14} {'paper':>14}"
        f"   ({better} is better)"]
    lines.extend(f"{system:<12} {_cell(measured.get(system))} "
                 f"{_cell(paper.get(system))}  {unit}"
                 for system in systems)
    return "\n".join(lines)


def normalize(values: Dict[str, float]) -> Dict[str, float]:
    """Normalise a metric to fusion-io (Figures 15–16 are plotted this
    way)."""
    base = values.get("fusion-io")
    if not base:
        raise ValueError("baseline 'fusion-io' missing or zero")
    return {name: value / base for name, value in values.items()}


def shape_check(measured: Dict[str, float],
                paper: Dict[str, float]) -> Dict[str, bool]:
    """Did the reproduction preserve the paper's qualitative findings?

    Checks the relations the paper's narrative rests on rather than
    absolute values: for each pair of systems, whether the measured
    ordering matches the paper's ordering.  Returns
    ``{"A>B": preserved}`` pairs for every ordered pair the paper ranks.
    """
    outcome: Dict[str, bool] = {}
    names = [name for name in paper if name in measured]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if paper[a] == paper[b]:
                continue
            paper_says_a = paper[a] > paper[b]
            measured_says_a = measured[a] > measured[b]
            key = f"{a}>{b}" if paper_says_a else f"{b}>{a}"
            outcome[key] = paper_says_a == measured_says_a
    return outcome


def shape_score(measured: Dict[str, float],
                paper: Dict[str, float]) -> float:
    """Fraction of the paper's pairwise orderings the reproduction kept."""
    checks = shape_check(measured, paper)
    if not checks:
        return 1.0
    return sum(checks.values()) / len(checks)


def render_shape_check(measured: Dict[str, float],
                       paper: Dict[str, float]) -> str:
    checks = shape_check(measured, paper)
    kept = sum(checks.values())
    lines = [f"pairwise orderings preserved: {kept}/{len(checks)}"]
    lines.extend(f"  {'ok ' if ok else 'MISS'} {relation}"
                 for relation, ok in sorted(checks.items()))
    return "\n".join(lines)
