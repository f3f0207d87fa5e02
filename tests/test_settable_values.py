"""The settable values of ``src/repro`` only ever go down.

A settable value is a defaulted parameter of a function or method, or a
defaulted field of a dataclass, counted over the AST.  Each one doubles
the configurations a test or a benchmark could have to cover, so a
value that no caller outside the tests sets is a constant instead.  The
ceiling is the count after the last removal; lower it when a change
removes more, and raise it only with the caller that needs the value.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The count at the last change that removed settable values.
CEILING = 307


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(decorator)
               for decorator in node.decorator_list)


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(
                default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None for stmt in node.body)
    return count


def test_the_rule_counts_parameters_and_dataclass_fields():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=1: x\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class D:\n"
        "    z: int = 0\n")
    # b and c, and C.y: a lambda's default and a plain class's
    # attribute are not settable values.
    assert settable_values(tree) == 3


def test_settable_values_stay_under_the_ceiling():
    count = sum(settable_values(ast.parse(path.read_text()))
                for path in sorted(SRC.rglob("*.py")))
    assert count <= CEILING, (
        f"{count} settable values in src/repro, ceiling {CEILING}: make "
        f"a value no caller outside the tests sets a constant")
