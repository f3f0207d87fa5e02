"""Frozen ``repro explain`` output, byte for byte.

``explain_digest.json`` pins, per pair of ledger rows, a sha256 of the
three things ``repro explain A B`` hands a reader: the rendered report,
the ``--json`` report and the ``--flame-diff`` file.  The rows are
profiled sysbench / icash runs at 600 requests, scale 0.5, on the
event engine, recorded into one store with the git provenance and the
host fingerprint pinned (:func:`reference.pins.pinned_ledger`), so no
run id moves with the commit or the machine:

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
"""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import io
import os
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple

from reference.grid_digest import run_profiled
from reference.pins import GIT, pinned_ledger, sha
from repro import ledger
from repro.cli import main
from repro.experiments.parallel import RunSpec

BASE = RunSpec(workload="sysbench", system="icash", engine="event",
               n_requests=600, seed=2011, scale=0.5)
#: Accept almost no delta as compressible: every headline metric moves.
OVERRIDDEN = dataclasses.replace(
    BASE, config_overrides=(("delta_accept_bytes", 1),))

CLEAN = GIT
OTHER_SHA = ("fedcba9876543210fedcba9876543210fedcba98", False)
DIRTY = (CLEAN[0], True)

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
CASES: Dict[str, Tuple[str, str, Optional[str]]] = {
    "twin": ("base", "twin", None),
    "override": ("base", "override", "config_override"),
    "reseed": ("base", "reseed", "seed_change"),
    "sha": ("base", "sha", "code_change"),
    "dirty": ("base", "dirty", "dirty_tree"),
    "workload": ("base", "workload", "incomparable"),
}


#: ``spec`` run in this process with a profiler, once.
run = lru_cache(maxsize=None)(run_profiled)


@lru_cache(maxsize=None)
def store() -> ledger.LedgerWriter:
    """A store holding :data:`ROWS`, seq 1 upwards, in a temporary
    directory removed when the process exits."""
    root = tempfile.mkdtemp(prefix="explain-digest-")
    atexit.register(shutil.rmtree, root, True)
    writer = ledger.LedgerWriter(root, clock=lambda: 0.0)
    for ran, recorded, git in ROWS.values():
        with pinned_ledger(git):
            writer.record(run(ran), command="run", spec=recorded)
    return writer


def ref(row: str) -> str:
    return str(list(ROWS).index(row) + 1)


def _explain(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    return out.getvalue().encode()


def pin(name: str) -> Dict[str, str]:
    """The sha256 of ``repro explain``'s text, JSON and flame diff."""
    a, b, _cause = CASES[name]
    argv = ["explain", ref(a), ref(b), "--dir", store().root]
    with tempfile.TemporaryDirectory() as scratch:
        flame = os.path.join(scratch, "flame.diff")
        text = _explain(argv + ["--flame-diff", flame])
        flame_bytes = Path(flame).read_bytes()
    return {"render": sha(text), "json": sha(_explain(argv + ["--json"])),
            "flame_diff": sha(flame_bytes)}
