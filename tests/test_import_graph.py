"""Fence: nothing the serving path imports reaches ``repro.paper``.

``repro.paper`` holds what reproduces the paper's figures and baselines and
runs no query (``docs/paper-map.md``).  It may import the engine; the engine,
the servers and the CLI may not import it back at import time, directly or
through a package ``__init__`` -- that is how the r-tree, the HDFS simulator
and the figure harness came to be loaded by every ``repro serve``.  The only
way in is a function-local import in the two CLI sub-commands that print
paper tables.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: What a deployment imports: the library root, every serving and execution
#: package, and the command line.
SERVING_MODULES = (
    "repro", "repro.server", "repro.sharding", "repro.cluster",
    "repro.execution", "repro.index", "repro.planner", "repro.cli",
)

#: ``(file, enclosing function)`` of every import of ``repro.paper`` allowed
#: outside the package itself.
LAZY_ENTRY_POINTS = {("cli.py", "_cmd_analyze"), ("cli.py", "_cmd_experiments")}


def test_serving_imports_load_nothing_from_paper():
    program = (
        "import importlib, sys\n"
        f"for name in {SERVING_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.paper')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", program],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _paper_imports(path: pathlib.Path):
    """``(enclosing function or None, line)`` of each ``repro.paper`` import."""
    tree = ast.parse(path.read_text("utf-8"))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            else:
                names = []
            if any(n == "repro.paper" or n.startswith("repro.paper.") for n in names):
                yield function, child.lineno
            inner = (
                child.name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else function
            )
            yield from visit(child, inner)

    return list(visit(tree, None))


def test_only_the_two_paper_commands_import_paper_and_only_lazily():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "paper":
            continue
        for function, line in _paper_imports(path):
            assert function is not None, f"{relative}:{line} imports repro.paper at import time"
            found.add((relative.as_posix(), function))
    assert found == LAZY_ENTRY_POINTS

