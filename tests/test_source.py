"""Static checks on the package source."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "secantdim"


def _imported(tree):
    """(name, line) of every name an import binds, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [(name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_import_loads_no_pool_or_command_line():
    """`import secantdim` leaves the process pool and the command line to
    first use, so the package imports in a fresh interpreter stay quick."""
    deferred = ("concurrent.futures", "multiprocessing", "argparse",
                "secantdim.cli")
    code = ("import sys, secantdim\n"
            f"print([name for name in {deferred!r} if name in sys.modules])")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.stdout.strip() == "[]", done.stdout
