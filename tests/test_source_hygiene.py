"""Source lint by the standard library's ``ast``: no unused import, no orphaned helper.

Covers the modules of ``src/quotientfree``.  An imported name must be used
by its module (``__init__`` re-exports and ``__future__`` are exempt).  An
undecorated private top-level function or class must be referenced by some
module other than through its own body; decorated ones, such as the CLI's
registered command handlers, are reached through their decorator.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quotientfree"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(node: ast.AST) -> Counter:
    """Names read under node: bare names, attribute names and quoted names."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # a quoted annotation such as "LatticeConfig"
            if sub.value.isidentifier():
                refs[sub.value] += 1
    return refs


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = [name for name in _imported_names(tree) if name not in _used_names(tree)]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def test_every_private_helper_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    refs: Counter = Counter()
    for tree in trees.values():
        refs += _references(tree)
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if node.decorator_list:
                continue
            if refs[node.name] - _references(node)[node.name] == 0:
                orphans.append(f"{name}:{node.name}")
    assert orphans == [], f"private helpers that no module references: {orphans}"


def test_the_lint_sees_an_unused_import_and_an_orphan():
    tree = ast.parse("from math import lcm, prod\n\ndef _helper(n):\n    return _helper(prod(n))\n")
    assert [n for n in _imported_names(tree) if n not in _used_names(tree)] == ["lcm"]
    helper = tree.body[1]
    assert _references(tree)["_helper"] - _references(helper)["_helper"] == 0
