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

Every module-level import in ``src/blichfeldt/`` must be read in its own
module: a name it binds appears as a name in that module's code or in its
``__all__``.  The project has no linter dependency, so this is the same
AST walk.
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



def _unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".", 1)[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_import():
    unused = [u for path in sorted(PACKAGE.glob("*.py")) for u in _unused_imports(path)]
    assert unused == []


def test_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from math import gcd, isqrt\nimport os.path\n\n\ndef f(a, b):\n"
                      "    return gcd(a, b)\n")
    assert _unused_imports(module) == ["m.py:1: isqrt", "m.py:2: os"]
