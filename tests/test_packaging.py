"""The package declares `dependencies = []`, and its modules form layers; its imports must bear both out."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "rowsync").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_standard_library():
    assert SOURCES
    for path in SOURCES:
        for name in absolute_imports(path):
            assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


# Lowest first; a module may import only from modules of a strictly lower layer.
LAYERS = ({"errors"}, {"automaton"}, {"rowmon"}, {"equation", "exactlin"}, {"probe", "suites"}, {"cli"})
LAYER = {name: depth for depth, names in enumerate(LAYERS) for name in names}


def relative_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node.module


def test_modules_import_only_lower_layers():
    assert {path.stem for path in SOURCES} == set(LAYER) | {"__init__"}
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        for name in relative_imports(path):
            assert LAYER[name] < LAYER[path.stem], f"{path.stem} imports {name}"


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # A fresh interpreter, so that pytest's own imports do not count; only a
    # parallel enum pass needs multiprocessing, which takes about 10 ms to import.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, rowsync, rowsync.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
