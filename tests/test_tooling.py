"""The package's runtime dependencies: the standard library and numpy only. scipy,
hypothesis and pytest are test-only."""

import ast
import pathlib
import sys

import aahwalk

RUNTIME_MODULES = set(sys.stdlib_module_names) | {"numpy"}


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
