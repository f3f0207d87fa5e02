"""Station phases from a request's kept emissions, after the fact.

This is how the event engine derived a request's phase list before the
recorder started folding device spans into phases as they are emitted:
walk the request's emissions once it is done.  It reads the kept
emission tuples only, so tests run it on what a recorder with a fold
attached keeps and compare the result with the phases the recorder
built on the way.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.trace import SPAN


def _phases_of(emitted) -> List[Tuple[str, float]]:
    """Merge the request's foreground device spans into ordered
    station phases.

    Consecutive spans on the same device coalesce into one phase
    (one queue entry per device visit, not per 4 KB block); CPU
    spans, instants, marks and background work stay out — the CPU
    time becomes the non-contended residual tail.
    """
    phases: List[Tuple[str, float]] = []
    for foreground, op, _name, dur, _lba, _nbytes, _outcome, device \
            in emitted:
        if not foreground or op != SPAN or device is None or dur <= 0.0:
            continue
        if phases and phases[-1][0] == device:
            phases[-1] = (device, phases[-1][1] + dur)
        else:
            phases.append((device, dur))
    return phases


def residual_of(emitted, latency_s: float) -> float:
    """Service time no station phase covers (the CPU tail)."""
    covered = 0.0
    for _station, dur in _phases_of(emitted):
        covered += dur
    return max(0.0, latency_s - covered)
