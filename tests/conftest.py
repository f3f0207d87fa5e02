"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.sim.request import BLOCK_SIZE

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session", autouse=True)
def _repo_root_stays_clean():
    """Fail the run when the suite leaves (or removes) a file in the
    repo root — outputs belong under ``tmp_path``.  Directories are not
    compared: pytest's and hypothesis' own caches live there."""
    def root_files():
        return {p.name for p in REPO_ROOT.iterdir() if p.is_file()}

    before = root_files()
    yield
    after = root_files()
    assert after == before, (
        f"test suite changed the repo root: added "
        f"{sorted(after - before)}, removed {sorted(before - after)}")


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
    """Every ``take_request`` result of the test's event-engine runs —
    ``(request, station phases, spans or None, background jobs)`` — in
    admission order."""
    from repro.sim import engine as engine_module

    seen = []
    original = engine_module._CaptureTracer.take_request

    def spy(self):
        result = original(self)
        seen.append(result)
        return result

    monkeypatch.setattr(engine_module._CaptureTracer, "take_request", spy)
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
