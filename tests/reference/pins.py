"""The exact pins' one format, one comparison and one writer.

Each ``<name>_digest.json`` here maps the cases of a generator module
(:data:`DIGESTS`) to their pins: exact values (floats as ``float.hex``
or in ``json``'s round-tripping form) and sha256 hashes.  A generator
holds only ``CASES`` and ``pin(case)``.  Every pin test compares with
:func:`check`, which names each moved leaf ``old → new`` (a hash as
"changed").  The only writer is :func:`regen`, run as
``PYTHONPATH=src:tests python -m reference regen NAME… --reason TEXT``:
it prints what moved and records the reason and the git commit in the
file.  The program is deterministic, so a pin has no tolerance: an
intended change rewrites the pins it moves, in a change that says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
from pathlib import Path
from typing import Dict, Iterable, List
from unittest import mock

from repro import ledger

HERE = Path(__file__).parent

#: Digest name -> the generator module computing its pins.
DIGESTS = {
    "grid": "grid_digest",
    "engine": "engine_digest",
    "trace": "trace_digest",
    "monitor": "monitor_digest",
    "explain": "explain_digest",
    "stream": "stream_digest",
    "cli": "cli_digest",
    "devices": "devices",
    "ingest": "ingest",
    "delta_wire": "delta_codec",
}

#: Digests whose file nests case ``group/name`` as ``[group][name]``.
GROUPED = {"devices"}

#: The file key of the block :func:`regen` writes; no case is so named.
REGEN_KEY = "_regen"

#: The git provenance and host of every pinned ledger row.
GIT = ("0123456789abcdef0123456789abcdef01234567", False)
HOST = {"node": "pinned", "machine": "pinned", "system": "pinned",
        "python": "pinned"}


def pinned_ledger(git=GIT):
    """Record ledger rows with ``git`` provenance on the pinned host."""
    return mock.patch.multiple(ledger, _GIT_CACHE=git,
                               host_fingerprint=lambda: dict(HOST))


def fhex(value) -> str:
    return float(value).hex()


def sha(data) -> str:
    """sha256 of bytes, of a string's UTF-8 or of an iterable of both."""
    digest = hashlib.sha256()
    for chunk in [data] if isinstance(data, (bytes, str)) else data:
        digest.update(chunk.encode() if isinstance(chunk, str) else chunk)
    return digest.hexdigest()


def sha_json(value) -> str:
    return sha(json.dumps(value, sort_keys=True, default=repr))


def dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def path(name: str, root=HERE) -> Path:
    return Path(root, f"{name}_digest.json")


def generator(name: str):
    return importlib.import_module(f"reference.{DIGESTS[name]}")


def load(name: str, root=HERE) -> Dict[str, object]:
    """Digest ``name``'s pins by case, without the regen block."""
    doc = json.loads(path(name, root).read_text())
    doc.pop(REGEN_KEY, None)
    if name in GROUPED:
        return {f"{group}/{case}": pin for group, cases in doc.items()
                for case, pin in cases.items()}
    return doc


_ABSENT = object()


def _show(value) -> str:
    """``value`` as a reader wants it: a ``float.hex`` as its float."""
    if value is _ABSENT:
        return "absent"
    if isinstance(value, str) and value.lstrip("-").startswith("0x"):
        with contextlib.suppress(ValueError):
            return repr(float.fromhex(value))
    return repr(value)


def _is_hash(value) -> bool:
    return isinstance(value, str) and len(value) == 64 \
        and all(c in "0123456789abcdef" for c in value)


def moved(old, new, where: str = "") -> List[str]:
    """One ``path: old → new`` line per leaf that differs."""
    if old == new:
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [key for key in new if key not in old]
        return [line for key in keys for line in moved(
            old.get(key, _ABSENT), new.get(key, _ABSENT),
            f"{where}.{key}" if where else str(key))]
    if isinstance(old, list) and isinstance(new, list):
        pad = [_ABSENT] * abs(len(old) - len(new))
        return [line for i, (a, b) in enumerate(zip(old + pad, new + pad))
                for line in moved(a, b, f"{where}[{i}]")]
    where = where or "pin"
    if _is_hash(old) and _is_hash(new):
        return [f"{where}: changed"]
    return [f"{where}: {_show(old)} → {_show(new)}"]


def check(actual, frozen) -> None:
    """Fail naming every moved leaf unless ``actual``, as the writer
    stores it, equals ``frozen``."""
    __tracebackhide__ = True
    actual = json.loads(json.dumps(actual))
    if actual != frozen:
        raise AssertionError("the pin moved:\n  "
                             + "\n  ".join(moved(frozen, actual)))


def regen(names: Iterable[str], reason: str, root=HERE) -> None:
    """Rewrite each named digest under ``root`` from the code on the
    path; print what moved."""
    git_sha, dirty = ledger.git_provenance()
    for name in names:
        module = generator(name)
        pins = json.loads(json.dumps(
            {case: module.pin(case) for case in module.CASES}))
        if path(name, root).exists():
            for line in moved(load(name, root), pins):
                print(f"{name} {line}")
        doc: Dict[str, object] = {}
        for case, pin in pins.items():
            if name in GROUPED:
                group, _, member = case.partition("/")
                doc.setdefault(group, {})[member] = pin
            else:
                doc[case] = pin
        doc[REGEN_KEY] = {"reason": reason, "git_sha": git_sha,
                          "dirty": dirty}
        path(name, root).write_text(dump(doc))
