"""Frozen ``repro explain`` output, byte for byte.

``explain_digest.json`` pins, per pair of ledger rows, a sha256 of the
three things ``repro explain A B`` hands a reader: the rendered report,
the ``--json`` report and the ``--flame-diff`` file.  The rows are
profiled sysbench / icash runs at 600 requests, scale 0.5, on the
event engine, recorded into one store with the git provenance and the
host fingerprint pinned, so no run id moves with the commit or the
machine:

* ``twin`` — the same run recorded twice: no significant deltas;
* ``override`` — ``delta_accept_bytes`` set to 1 and recorded as a
  config override;
* ``reseed`` — seed 7;
* ``sha`` — the override's result recorded under the base recipe and
  another commit, as a code change that moved the metrics looks;
* ``dirty`` — the same, on the base commit with a dirty tree;
* ``workload`` — tpcc in place of sysbench: not comparable runs.

Every pair's recipes (the spec fields but seed and config overrides)
agree except ``workload``'s, which differ in the workload alone.
The program is deterministic: an intended change to what explain says
rewrites the JSON, in a change of its own that says why.
``PYTHONPATH=src:tests python -m reference.explain_digest`` rewrites the
JSON from whatever explain engine is on the path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple
from unittest import mock

from repro import ledger
from repro.cli import main
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import RunResult, run_benchmark
from repro.sim.profile import Profiler

DIGEST_PATH = Path(__file__).with_name("explain_digest.json")

BASE = RunSpec(workload="sysbench", system="icash", engine="event",
               n_requests=600, seed=2011, scale=0.5)
#: Accept almost no delta as compressible: every headline metric moves.
OVERRIDDEN = dataclasses.replace(
    BASE, config_overrides=(("delta_accept_bytes", 1),))

CLEAN = ("0123456789abcdef0123456789abcdef01234567", False)
OTHER_SHA = ("fedcba9876543210fedcba9876543210fedcba98", False)
DIRTY = (CLEAN[0], True)
HOST = {"node": "pinned", "machine": "pinned", "system": "pinned",
        "python": "pinned"}

#: Row name -> (spec run, spec recorded, git provenance), in seq order.
ROWS: Dict[str, Tuple[RunSpec, RunSpec, Tuple[str, bool]]] = {
    "base": (BASE, BASE, CLEAN),
    "twin": (BASE, BASE, CLEAN),
    "override": (OVERRIDDEN, OVERRIDDEN, CLEAN),
    "reseed": (dataclasses.replace(BASE, seed=7),
               dataclasses.replace(BASE, seed=7), CLEAN),
    "sha": (OVERRIDDEN, BASE, OTHER_SHA),
    "dirty": (OVERRIDDEN, BASE, DIRTY),
    "workload": (dataclasses.replace(BASE, workload="tpcc"),
                 dataclasses.replace(BASE, workload="tpcc"), CLEAN),
}

#: Pin name -> (row a, row b, the cause explain ranks first or None).
PAIRS: Dict[str, Tuple[str, str, Optional[str]]] = {
    "twin": ("base", "twin", None),
    "override": ("base", "override", "config_override"),
    "reseed": ("base", "reseed", "seed_change"),
    "sha": ("base", "sha", "code_change"),
    "dirty": ("base", "dirty", "dirty_tree"),
    "workload": ("base", "workload", "incomparable"),
}


@lru_cache(maxsize=None)
def run(spec: RunSpec) -> RunResult:
    """``spec`` in this process, with a profiler attached."""
    workload = spec.build_workload()
    return run_benchmark(workload, spec.build_system(workload),
                         engine=spec.engine,
                         warmup_fraction=spec.warmup_fraction,
                         profiler=Profiler())


def record(root: str) -> ledger.LedgerWriter:
    """A store under ``root`` holding :data:`ROWS`, seq 1 upwards."""
    store = ledger.LedgerWriter(root, clock=lambda: 0.0)
    with mock.patch.object(ledger, "host_fingerprint", lambda: HOST):
        for ran, recorded, git in ROWS.values():
            with mock.patch.object(ledger, "_GIT_CACHE", git):
                store.record(run(ran), command="run", spec=recorded)
    return store


def ref(row: str) -> str:
    return str(list(ROWS).index(row) + 1)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _explain(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return out.getvalue().encode()


def pin(store: ledger.LedgerWriter, name: str) -> Dict[str, str]:
    """The sha256 of ``repro explain``'s text, JSON and flame diff."""
    a, b, _cause = PAIRS[name]
    argv = ["explain", ref(a), ref(b), "--dir", store.root]
    with tempfile.TemporaryDirectory() as scratch:
        flame = os.path.join(scratch, "flame.diff")
        text = _explain(argv + ["--flame-diff", flame])
        flame_bytes = Path(flame).read_bytes()
    return {"render": _sha(text), "json": _sha(_explain(argv + ["--json"])),
            "flame_diff": _sha(flame_bytes)}


def frozen() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGEST_PATH.read_text())


def regenerate() -> Dict[str, Dict[str, str]]:
    """Every pin; writing it to ``DIGEST_PATH`` re-freezes them."""
    with tempfile.TemporaryDirectory() as root:
        store = record(root)
        return {name: pin(store, name) for name in PAIRS}


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(regenerate(), indent=2,
                                      sort_keys=True) + "\n")
