"""Workload base classes.

A :class:`Workload` owns a block space with initial content, and yields a
deterministic stream of content-bearing :class:`IORequest`s.  It also
keeps a *shadow* of what every block should contain after the writes
it has issued — the ground truth the test suite and the experiment runner
check storage systems against.  The initial image is frozen and shared
with the data-set memo and every system built on it; the shadow is a
:class:`~repro.sim.backing.BackingStore`: it plus the blocks written since.

:class:`SyntheticWorkload` provides the shared machinery: hot/cold and
sequential address patterns, geometric request sizes, and family-based
content with partial-overwrite mutation.  The six benchmark subclasses
only set parameters (matched to the paper's Table 4) and their
transaction model.

Request streams are *restartable*: every call to :meth:`requests` resets
the generator state and replays the identical stream, which is how the
experiment runner feeds the same trace to five storage architectures.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.backing import BackingStore
from repro.sim.request import BLOCK_SIZE, IORequest, OpType
from repro.workloads.content import ContentModel

#: Bound on the per-process memoised request-stream LRU (entries; a
#: multi-VM stream, interleaved, is one entry).  A stream is
#: deterministic in the workload's parameters (that is the
#: restartability contract above), so replaying a memoised stream is
#: bit-identical to regenerating it; payload arrays are frozen
#: read-only at creation so no consumer can corrupt a shared stream.
STREAM_CACHE_CAPACITY = 4
#: Upper bound on total cached payload bytes; oldest streams are evicted
#: first once the budget is exceeded.
STREAM_CACHE_MAX_BYTES = 512 * 1024 * 1024

#: Share of the block space in a synthetic workload's scattered hot set
#: (used when the workload sets no Zipf skew).
HOT_FRACTION = 0.2
#: Probability that a fresh start address is drawn from the hot set.
HOT_ACCESS_PROB = 0.8
#: Cap on one request's length in blocks.
MAX_REQUEST_BLOCKS = 32

_stream_cache: "OrderedDict[Tuple, Tuple[List[IORequest], int]]" = \
    OrderedDict()
_stream_counters = {"hits": 0, "misses": 0, "bytes": 0}


def clear_stream_cache() -> None:
    """Drop every memoised request stream (tests use this)."""
    _stream_cache.clear()
    _stream_counters["hits"] = 0
    _stream_counters["misses"] = 0
    _stream_counters["bytes"] = 0


def stream_cache_stats() -> dict:
    return {"hits": _stream_counters["hits"],
            "misses": _stream_counters["misses"],
            "size": len(_stream_cache),
            "bytes": _stream_counters["bytes"]}


def _stream_cache_put(key: Tuple, stream: List[IORequest]) -> None:
    nbytes = sum(request.size_bytes for request in stream
                 if request.is_write)
    _stream_cache[key] = (stream, nbytes)
    _stream_counters["bytes"] += nbytes
    while _stream_cache and (
            len(_stream_cache) > STREAM_CACHE_CAPACITY
            or _stream_counters["bytes"] > STREAM_CACHE_MAX_BYTES):
        _, (_, evicted_bytes) = _stream_cache.popitem(last=False)
        _stream_counters["bytes"] -= evicted_bytes


def memoised_stream(key: Tuple,
                    generate: Callable[[], Iterator[IORequest]],
                    replay: Callable[[List[IORequest]],
                                     Iterator[IORequest]]
                    ) -> Iterator[IORequest]:
    """The stream memoised under ``key``: ``replay`` of the recorded
    requests on a hit, ``generate()`` recorded as it is drained on a
    miss."""
    cached = _stream_cache.get(key)
    if cached is not None:
        _stream_cache.move_to_end(key)
        _stream_counters["hits"] += 1
        return replay(cached[0])
    _stream_counters["misses"] += 1
    return _recorded(key, generate())


def _recorded(key: Tuple, requests: Iterator[IORequest]
              ) -> Iterator[IORequest]:
    stream: List[IORequest] = []
    for request in requests:
        stream.append(request)
        yield request
    # Reached only when the consumer drained the whole stream — a
    # partially consumed generator must never seed the cache.
    _stream_cache_put(key, stream)


@dataclass(frozen=True)
class WorkloadProfile:
    """One row of the paper's Table 4 (workload characteristics)."""

    name: str
    n_reads: int
    n_writes: int
    avg_read_bytes: float
    avg_write_bytes: float
    data_size_bytes: float
    vm_ram_bytes: int

    @property
    def read_fraction(self) -> float:
        total = self.n_reads + self.n_writes
        return self.n_reads / total if total else 0.0

    def format_row(self) -> str:
        return (f"{self.name:<12} reads={self.n_reads:>9} "
                f"writes={self.n_writes:>9} "
                f"avg_read={self.avg_read_bytes:>8.0f}B "
                f"avg_write={self.avg_write_bytes:>8.0f}B "
                f"data={self.data_size_bytes / 2**20:>8.1f}MB")


class Workload(abc.ABC):
    """Abstract source of a content-bearing request stream."""

    #: Human-readable benchmark name.
    name: str = "workload"
    #: Block requests grouped into one application transaction (for
    #: throughput figures).
    ios_per_transaction: int = 4
    #: Application compute time per transaction (seconds) — think time and
    #: CPU work between I/Os; this is what keeps CPU busy in Figure 6(b).
    app_compute_per_tx: float = 2e-3
    #: Concurrent request streams the real benchmark drives (SysBench runs
    #: 16 threads, TPC-C 50 clients, ...).  The runner divides aggregate
    #: I/O busy time by this when deriving wall-clock time — the standard
    #: open-queue approximation for a closed-loop trace replay.
    io_concurrency: int = 8
    #: Fraction of per-transaction application time that is actual CPU
    #: work (the rest is lock waits, network, sleeps).  Sets the CPU
    #: utilisation baseline of Figures 6(b)/8(b)/10(b); the storage
    #: architecture's own cycles add on top.
    app_cpu_fraction: float = 0.55

    @abc.abstractmethod
    def build_dataset(self) -> np.ndarray:
        """The initial (pre-request) content of the whole block space:
        read-only and shared between callers, so copy it to mutate it."""

    @abc.abstractmethod
    def requests(self) -> Iterator[IORequest]:
        """The deterministic request stream (restarts on every call)."""

    @property
    @abc.abstractmethod
    def n_blocks(self) -> int:
        """Size of the block space."""

    @property
    @abc.abstractmethod
    def shadow(self) -> BackingStore:
        """Ground-truth content after the requests issued so far:
        ``shadow[lba]`` is one read-only block, ``np.asarray(shadow)``
        materialises the whole space."""

    @property
    def data_size_bytes(self) -> int:
        return self.n_blocks * BLOCK_SIZE

    @property
    def ssd_budget_blocks(self) -> int:
        """The SSD provisioning the paper gives I-CASH/LRU/Dedup: about
        one tenth of the data-set size."""
        return max(64, self.n_blocks // 10)


class SyntheticWorkload(Workload):
    """Parameterised synthetic benchmark generator.

    Address model: requests either continue a sequential run (probability
    ``seq_run_prob``) or start fresh at a random block — drawn from a
    Zipf popularity ranking when ``zipf_theta`` is set, else from a
    scattered *hot set* covering :data:`HOT_FRACTION` of the space with
    probability :data:`HOT_ACCESS_PROB`, otherwise from the whole space.
    Request lengths are capped at :data:`MAX_REQUEST_BLOCKS`.

    Content model: see :class:`~repro.workloads.content.ContentModel`.
    Writes mutate the current shadow content; a ``dup_write_fraction`` of
    written blocks are exact family-base copies (dedup-able traffic), and
    a ``rewrite_fraction`` are full rewrites (fresh family content).

    ``content_seed`` defaults to ``seed`` but can be pinned separately so
    several instances share one content universe (identical initial
    images) while issuing independent request streams — the multi-VM
    cloning scenario.
    """

    # Subclasses override these class-level defaults.
    name = "synthetic"
    paper_profile: Optional[WorkloadProfile] = None

    def __init__(self, n_blocks: int, n_requests: int, read_fraction: float,
                 avg_read_blocks: float, avg_write_blocks: float,
                 zipf_theta: Optional[float] = None,
                 seq_run_prob: float = 0.3, n_families: Optional[int] = None,
                 mutation_fraction: float = 0.10,
                 duplicate_fraction: float = 0.05,
                 dup_write_fraction: float = 0.03,
                 rewrite_fraction: float = 0.05,
                 vm_id: int = 0, seed: int = 2011,
                 content_seed: Optional[int] = None) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], "
                             f"got {read_fraction}")
        if n_requests < 1:
            raise ValueError(f"need at least one request, got {n_requests}")
        self._n_blocks = n_blocks
        self.n_requests = n_requests
        self.read_fraction = read_fraction
        self.avg_read_blocks = max(1.0, avg_read_blocks)
        self.avg_write_blocks = max(1.0, avg_write_blocks)
        self.zipf_theta = zipf_theta
        self.seq_run_prob = seq_run_prob
        self.dup_write_fraction = dup_write_fraction
        self.rewrite_fraction = rewrite_fraction
        self.vm_id = vm_id
        self.seed = seed
        self.content_seed = content_seed if content_seed is not None \
            else seed
        if n_families is None:
            n_families = max(1, n_blocks // 32)
        self.content = ContentModel(
            n_blocks=n_blocks, n_families=n_families,
            mutation_fraction=mutation_fraction,
            duplicate_fraction=duplicate_fraction,
            content_seed=self.content_seed)
        self._initial = self.content.build_dataset()
        self._reset()

    def _reset(self) -> None:
        """Restore pristine generator state (same stream on every pass)."""
        self._rng = np.random.default_rng(self.seed)
        self._shadow = BackingStore(self._initial)
        hot_count = max(1, int(self._n_blocks * HOT_FRACTION))
        self._hot_set = self._rng.permutation(self._n_blocks)[:hot_count]
        if self.zipf_theta is not None:
            # Zipf popularity over a permuted ranking: rank r gets
            # probability proportional to 1/r^theta, and ranks map to
            # scattered addresses so popular blocks are not contiguous.
            ranks = np.arange(1, self._n_blocks + 1, dtype=np.float64)
            pmf = ranks ** (-self.zipf_theta)
            self._zipf_cdf = np.cumsum(pmf / pmf.sum())
            self._zipf_perm = self._rng.permutation(self._n_blocks)
        self._run_next: Optional[int] = None

    # -- Workload interface -------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def shadow(self) -> BackingStore:
        return self._shadow

    def build_dataset(self) -> np.ndarray:
        # A view: unlike the owning array, it cannot be made writeable.
        return self._initial.view()

    @property
    def _stream_key(self) -> Tuple:
        """Every parameter the generated stream depends on.

        The restartability contract (module docstring) makes the stream a
        pure function of these values, so two workload instances with the
        same key replay bit-identical request sequences.
        """
        content = self.content
        return (type(self).__qualname__, self._n_blocks, self.n_requests,
                self.read_fraction, self.avg_read_blocks,
                self.avg_write_blocks, self.zipf_theta, self.seq_run_prob,
                self.dup_write_fraction, self.rewrite_fraction,
                self.vm_id, self.seed,
                self.content_seed,
                content.n_families, content.mutation_fraction,
                content.duplicate_fraction)

    def requests(self) -> Iterator[IORequest]:
        return memoised_stream(self._stream_key, self._generate,
                               self._replay)

    def _generate(self) -> Iterator[IORequest]:
        self._reset()
        for _ in range(self.n_requests):
            yield self._next_request()

    def _replay(self, stream: List[IORequest]) -> Iterator[IORequest]:
        """Yield a memoised stream, still applying writes to the shadow.

        The shadow copy is the part of :meth:`requests` with an observable
        side effect (``self.shadow`` is the verification ground truth), so
        a replay repeats exactly the writes the generation pass made;
        everything else (RNG draws, content mutation) is skipped.
        """
        self._reset()
        for request in stream:
            if request.is_write:
                for offset, block in enumerate(request.payload):
                    self._shadow[request.lba + offset] = block
            yield request

    # -- generation ------------------------------------------------------------

    def _pick_length(self, mean_blocks: float) -> int:
        # Geometric sizes reproduce the long-ish tail of real request-size
        # distributions while matching the Table 4 mean.
        p = min(1.0, 1.0 / mean_blocks)
        length = int(self._rng.geometric(p))
        return max(1, min(length, MAX_REQUEST_BLOCKS))

    def _pick_start(self, length: int) -> int:
        if self._run_next is not None \
                and self._rng.random() < self.seq_run_prob:
            start = self._run_next
            if start + length <= self._n_blocks:
                return start
        if self.zipf_theta is not None:
            rank = int(np.searchsorted(self._zipf_cdf, self._rng.random()))
            start = int(self._zipf_perm[min(rank, self._n_blocks - 1)])
        elif self._rng.random() < HOT_ACCESS_PROB:
            start = int(self._hot_set[
                self._rng.integers(0, len(self._hot_set))])
        else:
            start = int(self._rng.integers(0, self._n_blocks))
        return min(start, self._n_blocks - length)

    def _next_request(self) -> IORequest:
        is_read = self._rng.random() < self.read_fraction
        mean = self.avg_read_blocks if is_read else self.avg_write_blocks
        length = self._pick_length(mean)
        start = self._pick_start(length)
        self._run_next = start + length \
            if start + length < self._n_blocks else None
        if is_read:
            return IORequest(OpType.READ, start, length, vm_id=self.vm_id)
        payload = [self._new_content(lba)
                   for lba in range(start, start + length)]
        for offset, block in enumerate(payload):
            # Frozen: no consumer can corrupt a memoised stream by patching
            # a payload in place, and the shadow keeps the block itself.
            block.flags.writeable = False
            self._shadow[start + offset] = block
        return IORequest(OpType.WRITE, start, length, payload=payload,
                         vm_id=self.vm_id)

    def _new_content(self, lba: int) -> np.ndarray:
        roll = self._rng.random()
        if roll < self.dup_write_fraction:
            return self.content.duplicate_of(lba)
        if roll < self.dup_write_fraction + self.rewrite_fraction:
            return self.content.rewrite(lba, self._rng)
        return self.content.mutate(self._shadow[lba], self._rng, lba=lba)

    # -- reporting ---------------------------------------------------------------

    def measured_profile(self) -> WorkloadProfile:
        """Replay the stream and summarise it as a Table 4 row."""
        reads = writes = 0
        read_bytes = write_bytes = 0
        for request in self.requests():
            if request.is_read:
                reads += 1
                read_bytes += request.size_bytes
            else:
                writes += 1
                write_bytes += request.size_bytes
        return WorkloadProfile(
            name=self.name,
            n_reads=reads,
            n_writes=writes,
            avg_read_bytes=read_bytes / reads if reads else 0.0,
            avg_write_bytes=write_bytes / writes if writes else 0.0,
            data_size_bytes=self.data_size_bytes,
            vm_ram_bytes=0)
