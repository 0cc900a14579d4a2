"""The package's runtime dependencies: the standard library and numpy only. scipy,
hypothesis and pytest are test-only. Its modules import one another without a cycle.
Imports kept only for the benchmark's tracer name a call that the tracer wraps, every
other import is read, and every public name of the package has a reader."""

import ast
import pathlib
import sys
from graphlib import TopologicalSorter

import aahwalk

RUNTIME_MODULES = set(sys.stdlib_module_names) | {"numpy"}
ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_src_imports_only_stdlib_and_numpy():
    imported: dict[str, set[str]] = {}  # top-level module -> files importing it
    for path in sorted(pathlib.Path(aahwalk.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not a relative import
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], set()).add(path.name)
    assert "numpy" in imported
    assert {m: files for m, files in imported.items() if m not in RUNTIME_MODULES} == {}


def test_src_relative_imports_are_acyclic():
    """The relative imports between src/aahwalk modules, at module level and inside
    functions alike (an import deferred into a function only hides a cycle), form an
    acyclic graph."""
    package = pathlib.Path(aahwalk.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph: dict[str, set[str]] = {}  # module -> the package modules it imports
    for module in sorted(modules):
        tree = ast.parse((package / f"{module}.py").read_text())
        # `from .m import x` reads m; `from . import x` reads module x, or x of __init__
        graph[module] = {node.module or (alias.name if alias.name in modules else "__init__")
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.level == 1
                         for alias in node.names}
    assert {"circuit", "exact"} <= graph["engine"] and "__init__" in graph["experiment"]
    tuple(TopologicalSorter(graph).static_order())  # raises a CycleError naming the cycle


def _traced_attributes() -> set[tuple[str, str]]:
    """(module, attribute) of every name that perfbench/spans.py's _wraps wraps on an
    aahwalk module; its owners are locals named after the modules (``cli, experiment =
    aahwalk.cli, aahwalk.experiment``)."""
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    wraps = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_wraps")
    returned = next(node.value for node in ast.walk(wraps) if isinstance(node, ast.Return))
    return {(entry.elts[0].id, entry.elts[1].value) for entry in returned.elts
            if isinstance(entry.elts[0], ast.Name)}


def test_tracer_only_imports_are_traced_and_unused():
    """The reverse of test_benchmark_tracer_names_are_bound: a name that src imports only
    for the benchmark's tracer (``# noqa: F401 ... tracer``) is one the tracer wraps on that
    module, and nothing else in the module uses it."""
    traced = _traced_attributes()
    assert ("experiment", "density_profile") in traced
    marked = []
    for path in sorted(pathlib.Path(aahwalk.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            text = " ".join(lines[node.lineno - 1:node.end_lineno])
            if "noqa: F401" not in text or "tracer" not in text:
                continue
            for alias in node.names:
                marked.append(alias.name)
                assert (path.stem, alias.name) in traced, f"{path.name}: {alias.name}"
                assert alias.name not in used, f"{path.name} uses {alias.name}"
    assert marked


def _defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level names a statement defines: a def, a class or assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def test_public_names_are_read():
    """Each public module-level name of src/aahwalk (a def, class or assigned constant
    without a leading underscore) is read somewhere other than its own definition, in
    src/, tests/ or perfbench/. A read is a name or an attribute; in perfbench/ it may
    also be a string, because the tracer names what it wraps with getattr."""
    src = sorted(pathlib.Path(aahwalk.__file__).parent.glob("*.py"))
    public: dict[str, str] = {}  # name -> the file that defines it
    read: set[str] = set()
    readers = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in src + readers:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = _defined_names(stmt) if path in src else set()
            public.update((name, path.name) for name in own if not name.startswith("_"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and path.parent.name == "perfbench"):
                    name = node.value
                else:
                    continue
                if name not in own:
                    read.add(name)
    assert "CountsTable" in public and "run" in public
    assert {name: file for name, file in public.items() if name not in read} == {}


def test_src_imports_are_read():
    """Each name that a src/aahwalk module imports is read in that module, unless the import
    is kept for the benchmark's tracer (``# noqa: F401 ... tracer``); ``__init__.py``, which
    re-exports, and ``from __future__`` imports are exempt. No linter runs, so this check
    keeps a leftover import from staying unnoticed."""
    unread = []
    for path in sorted(pathlib.Path(aahwalk.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            text = " ".join(lines[node.lineno - 1:node.end_lineno])
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if future or ("noqa: F401" in text and "tracer" in text):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unread.append(f"{path.name}: {name}")
    assert unread == []
