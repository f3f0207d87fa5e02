"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.sim.request import BLOCK_SIZE

REPO_ROOT = Path(__file__).resolve().parent.parent
SHM = Path("/dev/shm")
#: The /dev/shm names the ``--jobs`` pools (multiprocessing semaphores
#: and shared memory) or this repo could create; other processes' entries
#: are never compared, so they cannot make the guard flaky.
SHM_PREFIXES = ("sem.", "psm_", "wnsm_", "repro")


@pytest.fixture(scope="session", autouse=True)
def _repo_root_stays_clean():
    """Fail the run when the suite leaves (or removes) a file in the
    repo root — outputs belong under ``tmp_path`` — or leaves a new
    entry in /dev/shm.  Root directories are not compared: pytest's and
    hypothesis' own caches live there."""
    def root_files():
        return {p.name for p in REPO_ROOT.iterdir() if p.is_file()}

    def shm_entries():
        if not SHM.is_dir():
            return set()
        return {p.name for p in SHM.iterdir()
                if p.name.startswith(SHM_PREFIXES)}

    before, shm_before = root_files(), shm_entries()
    yield
    after = root_files()
    assert after == before, (
        f"test suite changed the repo root: added "
        f"{sorted(after - before)}, removed {sorted(before - after)}")
    leaked = shm_entries() - shm_before
    assert not leaked, f"test suite left entries in /dev/shm: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch) -> None:
    """Keep tests from writing `.repro-ledger/` into the repo.

    The CLI records every experiment invocation by default
    (docs/LEDGER.md); tests that exercise recording construct a
    ``LedgerWriter`` on a tmp_path explicitly instead.
    """
    monkeypatch.setenv("REPRO_LEDGER", "0")


@pytest.fixture
def taken(monkeypatch):
    """Every ``take_request`` result of the test's recorders — ``(station
    phases, kept emissions or None, background jobs)`` — in the order
    taken (admission order on the event engine)."""
    from repro.sim.trace import Recorder

    seen = []
    original = Recorder.take_request

    def spy(self):
        result = original(self)
        seen.append(result)
        return result

    monkeypatch.setattr(Recorder, "take_request", spy)
    return seen


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def random_block(rng) -> np.ndarray:
    return rng.integers(0, 256, size=BLOCK_SIZE, dtype=np.uint8)


def make_block(fill: int = 0) -> np.ndarray:
    """A 4 KB block with a constant fill byte."""
    return np.full(BLOCK_SIZE, fill, dtype=np.uint8)


def make_dataset(n_blocks: int, seed: int = 7) -> np.ndarray:
    """A random (n_blocks, 4096) uint8 dataset."""
    gen = np.random.default_rng(seed)
    return gen.integers(0, 256, size=(n_blocks, BLOCK_SIZE), dtype=np.uint8)


def mutate_block(block: np.ndarray, offsets, value: int = 0xAB) -> np.ndarray:
    out = block.copy()
    for offset in offsets:
        out[offset] = value
    return out
