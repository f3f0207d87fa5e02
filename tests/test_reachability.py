"""Every module under ``src/repro`` is reached from a CLI verb.

A static import walk from :mod:`repro.cli` and :mod:`repro.__main__`
follows every import statement of a reached module, those inside
functions too (the CLI imports lazily).  A package ``__init__`` is
followed only for the names imported from it, so a re-export nobody
asks for keeps no module alive.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module -> why it may stay unreached.
ALLOWED_UNREACHED = {
    "repro.sim.pagecache": "the ROADMAP engine item puts the host page "
                           "cache on the figure grid",
}

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
    unreached = modules - reached() - ALLOWED_UNREACHED.keys()
    assert not unreached, f"no CLI verb reaches {sorted(unreached)}"


def test_the_allowlist_holds_only_unreached_modules():
    assert ALLOWED_UNREACHED.keys() <= MODULES.keys() - reached()
