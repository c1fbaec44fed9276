"""Line census: the statement lines of ``src/quotientfree`` that the tests never run.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) and prints, per module, each statement line that no
test ran, with its source.  Usage, from the repository root::

    python tools/census.py                 # the whole tier-1 suite
    python tools/census.py tests/test_density.py -x

Arguments are passed to ``pytest.main``.  A statement counts as run when the
tracer saw any of its own lines: a simple statement's lines, or a compound
statement's header up to its body.  Docstrings, ``def`` and ``class`` lines,
imports, ``global`` and ``nonlocal`` compile to no traced line and are not
counted.  Code run only in a subprocess (``python -m quotientfree.cli``) is
not seen.  The tracer costs time: the whole suite takes about 3.3 times as
long as without it (165 s against 51 s on CPython 3.11.7, 2-core x86-64).
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quotientfree"
_UNTRACED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
             ast.ImportFrom, ast.Global, ast.Nonlocal)


def statement_lines(path: Path) -> dict[int, range]:
    """Each counted statement's first line, mapped to the lines that show it ran."""
    statements = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, _UNTRACED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        statements[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return statements


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    seen: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        # only the package's frames get a local tracer, so test code runs untraced
        return local if frame.f_code.co_filename in files else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        missed = [first for first, lines in sorted(statement_lines(path).items())
                  if seen[name].isdisjoint(lines)]
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)}")
            for line in missed:
                print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"{total} statement lines never run (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
