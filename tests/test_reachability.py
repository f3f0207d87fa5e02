"""Every module under ``src/repro`` is reached from a CLI verb, and
every public name in it has a user.

A static import walk from :mod:`repro.cli` and :mod:`repro.__main__`
follows every import statement of a reached module, those inside
functions too (the CLI imports lazily).  A package ``__init__`` is
followed only for the names imported from it, so a re-export nobody
asks for keeps no module alive.

The name rule: each public top-level function, public class and
public method under ``src/repro`` is used somewhere in ``src/``,
``scripts/`` or ``perfbench/`` outside its own definition.  A use is a
bare name, an attribute, a string constant equal to the name (the
``figures.SERIES`` getters and ``getattr`` dispatch) or a ``from ...
import`` outside a package ``__init__``.  Tests do not count: a name
only a test calls is code no verb runs.  A use is matched by its bare
name, never by its class, so a method counts as used while any other
definition of that name has a user: ``Heatmap.record`` passed only
because ``LatencyStats.record`` and ``LedgerWriter.record`` are called.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Dotted name -> (syntax tree, is a package ``__init__``).
MODULES = {}
for _path in sorted((SRC / "repro").rglob("*.py")):
    _parts = _path.relative_to(SRC).with_suffix("").parts
    _package = _parts[-1] == "__init__"
    MODULES[".".join(_parts[:-1] if _package else _parts)] = \
        (ast.parse(_path.read_text()), _package)


def _imports(name):
    """``(module, names)`` per import in ``name``: ``names`` is None for
    ``import module``, else the names bound by ``from module import``."""
    tree, is_package = MODULES[name]
    package = name if is_package else name.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] \
                if node.level else ""
            yield ".".join(p for p in (base, node.module) if p), \
                [(a.name, a.asname or a.name) for a in node.names]


def reached():
    seen, todo = set(), [("repro.cli", None), ("repro.__main__", None)]
    while todo:
        module, names = todo.pop()
        if module not in MODULES:
            continue                                # stdlib or numpy
        if names is None or not MODULES[module][1] or \
                ("*", "*") in names:
            if module not in seen:
                seen.add(module)
                todo.extend(_imports(module))
            continue
        for name, _ in names:                       # from a package
            if f"{module}.{name}" in MODULES:
                todo.append((f"{module}.{name}", None))
                continue
            todo.append(next(
                ((source, [(n, b) for n, b in bound if b == name])
                 for source, bound in _imports(module)
                 if bound and any(b == name for _, b in bound)),
                (module, None)))                    # defined in __init__
    return seen


def test_every_module_is_reached_from_the_cli():
    modules = {name for name, (_, is_package) in MODULES.items()
               if not is_package}
    unreached = modules - reached()
    assert not unreached, f"no CLI verb reaches {sorted(unreached)}"


_ORACLE = "a crash-recovery oracle the recovery tests check the " \
          "controller against"

#: ``Class.method`` or function name -> why it may have no user.
ALLOWED_UNUSED = {
    "rebuild_controller": _ORACLE,
    "verify_recovery": _ORACLE,
    "select_reference": "the paper's Table 1 worked example, checked "
                        "step by step against the scanner",
    "clear_stream_cache": "seam: tests start from an empty "
                          "request-stream memo",
    "clear_dataset_cache": "seam: tests start from an empty data-set "
                           "memo",
    "make_read": "seam: tests build single requests with it",
    "make_write": "seam: tests build single requests with it",
    "DeltaLog.corrupt_block": "seam: the torn-log replay tests tear a "
                              "slot with it",
}


def _definitions():
    """``(path, qualified name, node)`` per public top-level function or
    class and per public method of a top-level class."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((path, f"{node.name}.{sub.name}", sub)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))


def _uses():
    """Name -> ``(path, line)`` of every use outside the tests."""
    uses = {}
    for base in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / base).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            in_init = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Constant) and \
                        isinstance(node.value, str):
                    names = [node.value]
                elif isinstance(node, ast.ImportFrom) and not in_init:
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    uses.setdefault(name, []).append((path, node.lineno))
    return uses


def unused_names():
    uses = _uses()
    return {qualified for path, qualified, node in _definitions()
            if not any(where != path
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in
                       uses.get(qualified.rpartition(".")[2], ()))}


def test_every_public_name_has_a_user():
    unused = unused_names() - ALLOWED_UNUSED.keys()
    assert not unused, f"nothing outside the tests uses {sorted(unused)}"


def test_the_allowlist_holds_only_unused_names():
    assert ALLOWED_UNUSED.keys() <= unused_names()
