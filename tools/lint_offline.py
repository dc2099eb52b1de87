#!/usr/bin/env python
"""The two ruff rules this repo trips over, checkable without ruff.

The CI ``lint`` job runs ``ruff check .``; the development containers have
no ruff and no network.  This script re-implements, on the stdlib, the two
rules that account for every lint failure a PR here has had -- ``E501`` (a
line longer than ``[tool.ruff] line-length``) and ``F401`` (an import nobody
uses) -- with ruff's own escape hatches: a ``# noqa`` / ``# noqa: <codes>``
comment on the line, names listed in ``__all__``, ``from __future__``
imports, and ``__init__.py`` files under ``src/repro`` (re-export surfaces;
``per-file-ignores`` in ``pyproject.toml``).  It is a subset of ruff, never
a superset: a file it passes can still fail ``D1`` or ``E7``.

Usage::

    python tools/lint_offline.py                  # src tests benchmarks examples tools
    python tools/lint_offline.py src/repro/cli.py tests

Exits 1 and prints ``path:line: CODE message`` per finding.
"""

from __future__ import annotations

import ast
import re
import sys
import warnings
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
_LINE_LENGTH = re.compile(r"^line-length\s*=\s*(\d+)", re.MULTILINE)
#: A string that can be a quoted annotation or an ``__all__`` entry.
_NAME_LIKE = re.compile(r"[A-Za-z_][\w.\[\], |]*")

Finding = Tuple[int, str, str]


def line_length_limit() -> int:
    """``[tool.ruff] line-length`` from ``pyproject.toml``."""
    return int(_LINE_LENGTH.search((REPO / "pyproject.toml").read_text("utf-8")).group(1))


def suppressed(line: str, code: str) -> bool:
    """Whether ``line`` carries a ``noqa`` that covers ``code``."""
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in {part.strip() for part in codes.split(",")}


def _names_in(node: ast.AST) -> Iterator[str]:
    """Every identifier read under ``node``, string annotations included."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and _NAME_LIKE.fullmatch(child.value)
        ):
            # A quoted annotation ("Tuple[DatasetIndex, bool]") or an
            # ``__all__`` entry.
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SyntaxWarning)
                    quoted = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))


def unused_imports(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, name)`` of each imported binding the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                if alias.asname is not None and alias.asname == alias.name:
                    continue  # ``import x as x``: an explicit re-export
                imported.setdefault(bound, getattr(alias, "lineno", node.lineno))
    used = set(_names_in(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def check_file(path: Path, limit: int) -> List[Finding]:
    """The E501 and F401 findings of one file."""
    source = path.read_text("utf-8")
    lines = source.splitlines()
    findings: List[Finding] = [
        (number, "E501", f"line too long ({len(line)} > {limit})")
        for number, line in enumerate(lines, 1)
        if len(line) > limit and not suppressed(line, "E501")
    ]
    relative = path.resolve().relative_to(REPO).as_posix()
    reexport_surface = path.name == "__init__.py" and relative.startswith("src/repro/")
    if not reexport_surface:
        for number, name in unused_imports(ast.parse(source, filename=str(path))):
            if not suppressed(lines[number - 1], "F401"):
                findings.append((number, "F401", f"`{name}` imported but unused"))
    return sorted(findings)


def python_files(arguments: List[str]) -> List[Path]:
    """The ``.py`` files under the given repo-relative files/directories."""
    files: List[Path] = []
    for raw in arguments:
        path = REPO / raw
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(arguments: List[str]) -> int:
    """Check the given paths (or the defaults); 1 when anything is found."""
    limit = line_length_limit()
    failures = 0
    for path in python_files(arguments or list(DEFAULT_PATHS)):
        for number, code, message in check_file(path, limit):
            print(f"{path.relative_to(REPO)}:{number}: {code} {message}")
            failures += 1
    if failures:
        print(f"{failures} finding(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
