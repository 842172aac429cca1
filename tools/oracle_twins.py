#!/usr/bin/env python3
"""How closely each oracle in tests/oracles.py copies its twin in the package.

    python3 tools/oracle_twins.py                      # tests/oracles.py against src/lambkit
    python3 tools/oracle_twins.py ORACLES.py SRC_DIR   # any other pair

An oracle is a top-level function or class of the oracle file. Its twin is the
top-level function or class of a module under SRC_DIR with the same name,
after a ``_reference`` suffix is dropped: ``read_gdsii_reference`` pairs with
``read_gdsii``, and ``_Parser`` with ``_Parser``. Each body becomes its list
of statements in source order. A compound statement counts as its header
only, and the statements of its bodies follow it. Docstrings are left out.
The ratio is difflib's ``SequenceMatcher`` ratio of the two lists, each
statement compared as its ``ast.dump``. A copy reads 1.00, a rewrite near 0.

It prints one line per pair, the highest ratio first:
``ratio  oracle  module:twin``. An oracle with no twin is not listed.
"""

import ast
import copy
import difflib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BODIES = ("body", "orelse", "finalbody", "handlers")


def statements(body) -> list:
    """The statements of a body in source order, each as the ast.dump of its header."""
    out = []
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            continue  # a docstring
        head = copy.copy(stmt)
        for field in _BODIES:
            if hasattr(head, field):
                setattr(head, field, [])
        out.append(ast.dump(head))
        for field in _BODIES:
            out += statements(getattr(stmt, field, ()))
    return out


def definitions(path: Path) -> dict:
    """name -> node of each top-level function and class of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def twin_ratios(oracles: Path, src: Path) -> list:
    """(ratio, oracle name, 'module:twin') of every oracle with a twin, highest first."""
    twins = {}
    for module in sorted(src.rglob("*.py")):
        for name, node in definitions(module).items():
            twins.setdefault(name, []).append((f"{module.relative_to(src)}:{name}", node))
    rows = []
    for name, node in definitions(oracles).items():
        mine = statements(node.body)
        for where, twin in twins.get(name.removesuffix("_reference"), ()):
            matcher = difflib.SequenceMatcher(None, mine, statements(twin.body), autojunk=False)
            rows.append((matcher.ratio(), name, where))
    return sorted(rows, key=lambda row: (-row[0], row[1], row[2]))


def main(argv) -> int:
    if len(argv) not in (0, 2):
        print("usage: oracle_twins.py [ORACLES.py SRC_DIR]", file=sys.stderr)
        return 2
    oracles, src = map(Path, argv) if argv else (ROOT / "tests" / "oracles.py",
                                                 ROOT / "src" / "lambkit")
    for ratio, name, where in twin_ratios(oracles, src):
        print(f"{ratio:.2f}  {name}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
