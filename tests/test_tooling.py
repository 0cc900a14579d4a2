"""The package's runtime dependencies: the standard library and numpy only. scipy,
hypothesis and pytest are test-only. Imports kept only for the benchmark's tracer name
a call that the tracer wraps."""

import ast
import pathlib
import sys

import aahwalk

RUNTIME_MODULES = set(sys.stdlib_module_names) | {"numpy"}
SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
