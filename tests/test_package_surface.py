"""Only code that runs in the package lives in ``src``.

Every top-level function and class of ``src/ndsquare`` must be used by
the package itself, be exported in ``ndsquare.__all__``, be an entry
point in ``pyproject.toml``, or be looked up by the benchmark's tracer
(``bench/layers.py``).  A name only the tests use belongs in the tests,
for instance in ``tests/oracles.py``.  Every name a ``src`` module
imports must be used in that module, be re-exported in
``ndsquare.__all__``, or sit on a ``# noqa: F401`` line, and a name
imported on such a line must be one the benchmark's tracer looks up.
A resonant coefficient is refused in one place, so ``ResonanceError``
is raised only by the gate and the two checks with messages of their
own.  Only the block solver and the dense oracle of ``nd_matrix`` call
``eigvalsh``.  There is one parallel path and no environment knob:
only ``experiments._solved`` forks or pickles, and no module reads
``os.environ`` or ``os.getenv``.  No process is signalled: no module
uses ``os.kill``, ``os.killpg``, ``signal.pidfd_send_signal`` or the
``signal`` module, since the parallel solve ends a helper by shutting
down its socket, and a pid may have been reused.  No module installs a
hook that runs in every fork (``os.register_at_fork``).  Only the
integer gate ``spectrum._integer`` uses ``operator``, so every
count-like input is decided one way, and only the row walk
``spectrum._row_heights`` reads the lattice budget, so every lattice
row, those of a resonance decision included, counts against it one
way.  The one loop of ``spectrum`` outside a generator expression is
the bisection ``spectrum._first``, so every lattice level is found one
way and no search can run on without end.  No module reads a private
name of another through attribute access (``spectrum._x``), so the CLI
calls the same public entry points as a user of the library.
``negative_eigenvalue_bound`` is the one public lattice count: the
solution-operator count is not exported, and importing the package or
its CLI does not load ``ndsquare.solution_op``.  The ``test`` extra of
``pyproject.toml`` names every third-party module the tests import, and
the CI workflow installs it, so no test is skipped for a missing module.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _imports():
    """(module, imported name, names the module loads, on a noqa line)."""
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
                noqa = "# noqa: F401" in lines[alias.lineno - 1]
                yield path.stem, name, loaded, noqa


def test_every_import_is_used():
    unused = [
        f"{module}.{name}"
        for module, name, loaded, noqa in _imports()
        if name not in loaded and name not in ndsquare.__all__ and not noqa
    ]
    assert unused == [], "imported but never used; drop the import"


def test_every_noqa_import_is_looked_up_by_the_bench():
    # a noqa import is kept only for the tracer, so it cannot hide a
    # dead import
    lookups = _bench_lookups()
    unlooked = [
        f"{module}.{name}"
        for module, name, _, noqa in _imports()
        if noqa and name not in lookups
    ]
    assert unlooked == [], "noqa import the bench does not look up; drop it"


#: The only top-level definitions of src that build a ResonanceError:
#: the gate, the crossing window's "change eps" message and the
#: per-mode check of one coefficient
RESONANCE_RAISERS = {
    "spectrum._checked_threshold",
    "experiments.verify_crossing",
    "solution_op.solution_diff_coefficient",
}


def test_resonance_is_refused_only_by_the_gate():
    raisers = [
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in SOURCES
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "ResonanceError" in _used_names(node.func)
    ]
    second_gates = [name for name in raisers if name not in RESONANCE_RAISERS]
    assert second_gates == [], "refuse resonance through _checked_threshold"


#: The one place in src that may start a process: the parallel solve
FORKERS = {"experiments._solved"}

#: Names through which a module reads the environment
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _references(names):
    """(module.top-level def, name) for each top-level def of src and
    each of ``names`` that it uses, imports or imports from."""
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            used = _used_names(top) | {
                name
                for node in ast.walk(top)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in (
                    getattr(node, "module", None),
                    *(a.name for a in node.names),
                )
            }
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for name in used & names:
                yield where, name


def test_only_the_parallel_solve_forks():
    # one parallel path: a second fork would need its own reaping
    forks = {where for where, _ in _references({"fork", "forkpty"})}
    assert forks == FORKERS, "fork only in experiments._solved"


#: The only places in src that run an eigensolve: the block solver and
#: the dense oracle beside it
EIGENSOLVERS = {
    "nd_matrix.circulant_spectrum",
    "nd_matrix.symmetric_eigenvalues",
}


def test_only_nd_matrix_runs_the_eigensolve():
    # one module owns the split of the side blocks into eigenproblems
    solvers = {where for where, _ in _references({"eigvalsh"})}
    assert solvers == EIGENSOLVERS, "solve through nd_matrix.circulant_spectrum"


#: The one integer gate that decides every count-like input, and the
#: module-level ``import operator`` it needs
INTEGER_GATES = {"spectrum.<module>", "spectrum._integer"}


def test_one_gate_decides_every_count():
    # a second helper would give a second convention for the same refusal
    gates = {where for where, _ in _references({"operator"})}
    assert gates == INTEGER_GATES, "decide a count through spectrum._integer"


#: The one walk of the lattice rows, which owns the row budget, and the
#: budget's definition
BUDGET_READERS = {"spectrum.<module>", "spectrum._row_heights"}


def test_one_walk_owns_the_row_budget():
    # a second row loop would bring a second copy of the budget check
    readers = {where for where, _ in _references({"RESONANCE_SCAN_STEPS"})}
    assert readers == BUDGET_READERS, "walk rows through spectrum._row_heights"


#: The one search loop of spectrum: the bisection for the first level
#: where a monotone test holds
SEARCH_LOOPS = {"spectrum._first"}


def test_one_bisection_finds_every_level():
    # a scan or a settle loop of its own once hung where a unit step of
    # the level did not move its float
    tree = ast.parse((ROOT / "src" / "ndsquare" / "spectrum.py").read_text())
    loops = {
        f"spectrum.{getattr(top, 'name', '<module>')}"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
    }
    assert loops == SEARCH_LOOPS, "find a level through spectrum._first"


#: The one place in src that pickles, the parallel solve's frames, and
#: the module-level ``import pickle`` it needs
PICKLERS = {"experiments.<module>", "experiments._solved"}


def test_only_the_parallel_solve_pickles():
    # the frame format is known to one function
    picklers = {where for where, _ in _references({"pickle"})}
    assert picklers == PICKLERS, "pickle only in experiments._solved"


#: Names through which a module signals a process
SIGNALLERS = {"kill", "killpg", "pidfd_send_signal", "signal"}


def test_no_module_signals_a_pid():
    # a helper reaped elsewhere frees its pid for reuse, and a helper
    # ends at its next write once its socket is shut down, so no
    # process is signalled, by pid or by pidfd
    signals = sorted(_references(SIGNALLERS))
    assert signals == [], "shut down the helper's socket, do not signal"


def test_no_module_installs_a_fork_hook():
    # a hook installed at import runs in every fork of any program that
    # imports the package; a socket shutdown reaches the helper however
    # many processes hold the caller's end, so none is needed
    hooks = sorted(_references({"register_at_fork"}))
    assert hooks == [], "end a helper through its socket, not a fork hook"


def test_no_module_reads_the_environment():
    # behaviour follows the flags and the affinity mask, never a
    # variable of the environment
    readers = sorted(_references(ENVIRONMENT_READERS))
    assert readers == [], "take a setting as a flag, not from os.environ"


def test_no_module_reads_a_private_attribute_of_another():
    # one implementation per quantity: a second module that needs a
    # private helper calls the public function built on it instead
    modules = {path.stem for path in SOURCES}
    reads = sorted(
        f"{path.stem}: {node.value.id}.{node.attr}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules - {path.stem}
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    )
    assert reads == [], "use the public entry point of the other module"


def test_one_public_lattice_count():
    # the solution-operator count is the benchmark's cross-check, reached
    # only through ndsquare.solution_op
    assert "exact_negative_count" not in ndsquare.__all__
    with pytest.raises(ImportError):
        from ndsquare import exact_negative_count  # noqa: F401
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, ndsquare.cli; print('ndsquare.solution_op' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def _test_extra() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    (extra,) = re.findall(r"^test = \[(.*)\]$", text, re.M)
    return set(re.findall(r'"([\w-]+)', extra))


def _test_imports() -> set[str]:
    """Top-level modules the tests import or pass to importorskip."""
    modules = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
            elif (
                isinstance(node, ast.Call)
                and _used_names(node.func) >= {"pytest", "importorskip"}
            ):
                modules.add(node.args[0].value)
    return {module.split(".")[0] for module in modules}


def test_the_test_extra_holds_every_test_dependency():
    # a module missing from the extra skips the tests that need it
    local = {path.stem for path in (ROOT / "tests").glob("*.py")}
    third_party = (
        _test_imports() - set(sys.stdlib_module_names) - local
        - {"ndsquare", "numpy"}
    )
    extra = _test_extra()
    assert third_party - extra == set(), "add it to the test extra"
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    (install,) = re.findall(r"run: python -m pip install (.*)", workflow)
    assert extra - set(install.split()) == set(), "install it in CI"
