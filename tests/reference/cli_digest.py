"""Frozen output of the observer and multi-run CLI invocations.

``cli_digest.json`` pins, per case, what a reader of one command line
gets: its exit code (a sequence's first nonzero one), a sha256 of its
stdout, a sha256 of each file it writes (by relative path) and a
sha256 of each canonical ledger row it records.  Each case runs
in-process in an empty working directory with recording on into
``ledger/`` and the git provenance and host fingerprint pinned
(:func:`reference.pins.pinned_ledger`), so no row moves with the
commit or the machine:

* ``trace/*`` — a ring trace to Chrome JSON and to JSON Lines (the
  latter from a ring too small for the run);
* ``monitor/*`` — the windowed series as text and as ``--json``;
* ``critpath/*`` — the attribution table on each engine, at an
  open-loop rate, with folded stacks and as ``--json``;
* ``loadtest/*`` — explicit rates, a calibrated sweep, a CSV export and
  every architecture at its knee at one and two jobs;
* ``figure/*`` — one series recorded into the ledger, and two series
  at two jobs.

A case is a sequence of command lines whose stdouts concatenate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence
from unittest import mock

from reference.pins import pinned_ledger, sha, sha_json
from repro import ledger
from repro.cli import main
from repro.experiments import figures

#: Case name -> the command lines it runs, in order.
CASES: Dict[str, Sequence[List[str]]] = {
    "trace/json": [
        ["run", "sysbench", "--requests", "400", "--trace", "t.json"]],
    "trace/jsonl": [
        ["run", "tpcc", "--system", "lru", "--requests", "400",
         "--trace", "t.jsonl", "--buffer", "1000"]],
    "monitor/text": [
        ["run", "sysbench", "--requests", "400", "--monitor", "mon",
         "--interval", "0.002"]],
    "monitor/json": [
        ["run", "tpcc", "--system", "raid0", "--requests", "400",
         "--monitor", "mon", "--interval", "0.05", "--max-windows", "16",
         "--json"]],
    "critpath/legacy": [
        ["run", "sysbench", "--requests", "400", "--critpath",
         "--engine", "legacy"]],
    "critpath/event": [
        ["run", "tpcc", "--system", "lru", "--requests", "400",
         "--critpath"]],
    "critpath/rate": [
        ["run", "sysbench", "--requests", "400", "--critpath",
         "--rate", "500000", "--seed", "7"]],
    "critpath/folded": [
        ["run", "sysbench", "--requests", "400", "--critpath",
         "--folded", "stacks.folded"]],
    "critpath/json": [
        ["run", "specsfs", "--requests", "400", "--critpath", "--json"]],
    "loadtest/rates": [
        ["sweep", "load.rate", "900000", "200000", "600000",
         "--workload", "sysbench", "--requests", "300"]],
    "loadtest/points": [
        ["sweep", "load.rate", "--workload", "sysbench", "--requests",
         "300", "--points", "3", "--span", "0.5", "1.5",
         "--distribution", "constant"]],
    "loadtest/csv": [
        ["sweep", "load.rate", "100", "400", "--workload", "tpcc",
         "--system", "raid0", "--requests", "300", "--seed", "9",
         "--csv", "curve.csv"]],
    "loadtest/compare-jobs1": [
        ["sweep", "load.rate", "--workload", "tpcc", "--requests", "200",
         "--compare", "--jobs", "1"]],
    "loadtest/compare-jobs2": [
        ["sweep", "load.rate", "--workload", "tpcc", "--requests", "200",
         "--compare", "--jobs", "2"]],
    "figure/one": [
        ["validate", "figure14", "--requests", "300"]],
    "figure/two-jobs2": [
        ["validate", "figure6a", "table5tpcc", "--requests", "300",
         "--jobs", "2", "--no-ledger"]],
}


def _written(root: str) -> Dict[str, str]:
    """A sha256 of each file under ``root`` but the ledger's own."""
    found = {}
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, root)
            if relative.split(os.sep)[0] != "ledger":
                found[relative] = sha(Path(path).read_bytes())
    return found


def _ledger_rows(root: str) -> List[str]:
    """A sha256 of each recorded row, canonical (no volatile clocks)."""
    path = Path(root, "ledger", ledger.EXPORT_NAME)
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        doc = json.loads(line)
        del doc["volatile"]
        rows.append(sha_json(doc))
    return rows


def pin(name: str) -> Dict[str, object]:
    """Run case ``name`` from an empty directory and hash what it left."""
    figures.clear_cache()
    out = io.StringIO()
    codes = []
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {"REPRO_LEDGER": "1",
                                         "REPRO_LEDGER_DIR": "ledger"}), \
            pinned_ledger():
        os.chdir(root)
        try:
            for argv in CASES[name]:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        codes.append(main(list(argv)))
                    except SystemExit as stop:
                        codes.append(stop.code)
        finally:
            os.chdir(previous)
            figures.clear_cache()
        return {"exit": next((code for code in codes if code), 0),
                "stdout": sha(out.getvalue()),
                "files": _written(root),
                "ledger": _ledger_rows(root)}

