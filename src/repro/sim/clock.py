"""Virtual time for closed-loop trace replay."""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing virtual clock in seconds.

    The clock only moves when explicitly advanced; device models advance it
    by their service latencies and workloads by their modelled application
    compute (think) time.  Keeping the clock explicit — rather than implied
    by wall-clock time — is what makes runs deterministic and reproducible.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to ``timestamp`` if it lies ahead.

        A no-op when ``timestamp`` is in the past — used by the tracer to
        reconcile a request's end time without ever rewinding.  Returns
        the (possibly unchanged) current time.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new time.

        Negative advances are rejected: virtual time never runs backwards.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} seconds")
        self._now += seconds
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock, e.g. between independent experiment runs."""
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start}")
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self._now:.6f})"
