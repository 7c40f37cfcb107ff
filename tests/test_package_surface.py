"""Only code that runs in the package lives in ``src``.

Every top-level function and class of ``src/ndsquare`` must be used by
the package itself, be exported in ``ndsquare.__all__``, be an entry
point in ``pyproject.toml``, or be looked up by the benchmark's tracer
(``bench/layers.py``).  A name only the tests use belongs in the tests,
for instance in ``tests/oracles.py``.  Every name a ``src`` module
imports must be used in that module, be re-exported in
``ndsquare.__all__``, or sit on a ``# noqa: F401`` line.
"""

import ast
import re
from pathlib import Path

import ndsquare

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ndsquare").glob("*.py"))


def _used_names(node: ast.AST) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _definitions():
    """(module name, top-level def, names used by the rest of src)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            used = set()
            for other_module, other in trees.items():
                for top in other.body:
                    if top is not node:
                        used |= _used_names(top)
            yield module, node.name, used


def _entry_points() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r":(\w+)", scripts))


def _bench_lookups() -> set[str]:
    # the tracer names each wrapped function as a quoted attribute
    text = (ROOT / "bench" / "layers.py").read_text()
    return set(re.findall(r'"(\w+)"', text))


def test_every_definition_runs_in_the_package():
    allowed = set(ndsquare.__all__) | _entry_points() | _bench_lookups()
    test_only = [
        f"{module}.{name}"
        for module, name, used in _definitions()
        if name not in used and name not in allowed
    ]
    assert test_only == [], "used only outside the package; move to tests"


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if (
                    name not in loaded
                    and name not in ndsquare.__all__
                    and "# noqa: F401" not in lines[alias.lineno - 1]
                ):
                    unused.append(f"{path.stem}.{name}")
    assert unused == [], "imported but never used; drop the import"
