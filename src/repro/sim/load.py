"""Load generators for the discrete-event engine.

A load generator decides *when* the next request of a workload's
stream arrives; the :class:`repro.sim.engine.EventEngine` decides how
long it then waits and executes.  Two disciplines:

* **Open loop** (:class:`OpenLoopLoad`) — arrivals at a fixed offered
  rate, independent of completions (Poisson or constant-spaced).  This
  is the discipline that exposes saturation: past the knee the queue
  grows without bound for the duration of the run and response times
  blow up, exactly what ``repro sweep load.rate`` sweeps for.
* **Closed loop** (:class:`ClosedLoopLoad`) — N clients, each issuing
  its next request a constant think time after its previous one
  completes.
  With one client and zero think time this degenerates to the legacy
  serial replay — the engine's collapse property test runs exactly
  that configuration.

All randomness is drawn from a seeded generator that :meth:`reset`
rewinds, so the engine stays deterministic end to end.  Poisson
interarrivals are drawn as *unit*-mean exponentials scaled by
``1/rate``: a rate sweep with a fixed seed sees the same arrival
pattern compressed in time, which keeps the measured throughput curve
monotone instead of jittering with per-rate resampling noise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_DISTRIBUTIONS = ("poisson", "constant")


class OpenLoopLoad:
    """Arrivals at a fixed offered rate, independent of completions."""

    open_loop = True

    def __init__(self, rate_rps: float, distribution: str = "poisson",
                 seed: int = 1234) -> None:
        if rate_rps <= 0.0:
            raise ValueError(f"arrival rate must be positive, "
                             f"got {rate_rps}")
        if distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown arrival distribution "
                             f"{distribution!r}; pick one of "
                             f"{_DISTRIBUTIONS}")
        self.rate_rps = rate_rps
        self.distribution = distribution
        self.seed = seed
        self._rng: Optional[np.random.Generator] = None

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def next_arrival(self, now_s: float) -> float:
        """Virtual time of the arrival after one at ``now_s``."""
        if self.distribution == "poisson":
            gap = self._rng.exponential(1.0) / self.rate_rps
        else:
            gap = 1.0 / self.rate_rps
        return now_s + gap

    def __repr__(self) -> str:
        return (f"OpenLoopLoad(rate_rps={self.rate_rps!r}, "
                f"distribution={self.distribution!r}, seed={self.seed})")


class ClosedLoopLoad:
    """N clients, each thinking between its completions and requests."""

    open_loop = False

    def __init__(self, clients: int, think_s: float = 0.0) -> None:
        if clients < 1:
            raise ValueError(f"need at least one client, got {clients}")
        if think_s < 0.0:
            raise ValueError(f"think time must be >= 0, got {think_s}")
        self.clients = clients
        self.think_s = think_s

    def reset(self) -> None:
        """Nothing to rewind: every think is the same constant."""

    def initial_think(self) -> float:
        """When a client issues its very first request (t=0: all
        clients start hammering immediately, FIFO-ordered by client)."""
        return 0.0

    def next_think(self) -> float:
        return self.think_s

    def __repr__(self) -> str:
        return (f"ClosedLoopLoad(clients={self.clients}, "
                f"think_s={self.think_s!r})")


def default_closed_loop(workload) -> ClosedLoopLoad:
    """The closed-loop shape matching the legacy runner's model: one
    stream per unit of ``io_concurrency``, thinking the per-I/O share
    of the transaction's application compute between requests."""
    think = workload.app_compute_per_tx / workload.ios_per_transaction
    return ClosedLoopLoad(clients=workload.io_concurrency,
                          think_s=think)
