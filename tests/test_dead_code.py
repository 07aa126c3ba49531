"""No function or method of the package is called only by tests.

Every module-level function, public or private, and every method other
than a dunder in ``src/blichfeldt/`` must be referenced by name somewhere
in ``src/``, ``scripts/`` or ``bench/``.  There are no exceptions: the
independent oracles that tests hold the program's results against live in
``tests/oracles.py``.

The test matches bare names, not what they resolve to: a method is
counted as used when any name or attribute anywhere is spelled the same.
So a name collision can hide a dead method (an unused ``Interval.contains``
passed because ``Lattice.contains`` is called); check a new method's
callers by hand when its name is already taken.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blichfeldt"


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield path.name, node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield path.name, f"{node.name}.{item.name}", item.name


def _referenced_names():
    names = set()
    for folder in ("src", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_no_function_only_tests_call():
    used = _referenced_names()
    unused = [
        f"{module}: {qualified}"
        for module, qualified, name in _definitions()
        if name not in used
    ]
    assert unused == []

