"""Station phases from a request's buffered spans, after the fact.

This is how the event engine derived a request's phase list before the
capture tracer started folding device spans into phases as they are
emitted: walk the buffered spans once the request is done.  It reads the
spans only, so tests run it on the entries a traced run keeps and compare
the result with the phases the tracer built on the way.
"""

from __future__ import annotations

from typing import List, Tuple


def _phases_of(entries) -> List[Tuple[str, float]]:
    """Merge the request's device spans into ordered station phases.

    Consecutive spans on the same device coalesce into one phase
    (one queue entry per device visit, not per 4 KB block); CPU
    spans and instants stay out — they become the non-contended
    residual tail.
    """
    phases: List[Tuple[str, float]] = []
    for entry in entries:
        if entry.kind != "device" or entry.dur <= 0.0:
            continue
        if phases and phases[-1][0] == entry.device:
            phases[-1] = (entry.device, phases[-1][1] + entry.dur)
        else:
            phases.append((entry.device, entry.dur))
    return phases


def residual_of(entries, latency_s: float) -> float:
    """Service time no station phase covers (the CPU tail)."""
    covered = sum(dur for _station, dur in _phases_of(entries))
    return max(0.0, latency_s - covered)
