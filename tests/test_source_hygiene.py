"""Source lint by the standard library's ``ast``: no unused import, no orphaned definition.

Covers the modules of ``src/quotientfree``.  An imported name must be used
by its module (``__init__`` re-exports and ``__future__`` are exempt).  An
undecorated top-level function or class, private or public, must be
referenced by some module other than through its own body, and a name
that ``__init__`` re-exports counts as referenced; decorated ones, such as
the CLI's registered command handlers, are reached through their
decorator.  A private method of a top-level class, plain or a
classmethod, staticmethod, property or cached_property, must be read as
an attribute by some module outside its own body.  A private name
assigned at module level, such as a constant, must be read by some module.
Every module parses at the oldest Python that ``pyproject.toml``'s
``requires-python`` admits.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quotientfree"
MODULES = sorted(SRC.glob("*.py"))


def _minimum_python() -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"\s*$', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python of the form >=X.Y"
    return int(match[1]), int(match[2])


def _syntax_errors(source: str, name: str, version: tuple[int, int]) -> list[str]:
    """The syntax error of ``source`` under ``version``'s grammar, if any."""
    try:
        ast.parse(source, filename=name, feature_version=version)
    except SyntaxError as exc:
        return [f"{name}: {exc.msg}"]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_at_the_minimum_python(path):
    version = _minimum_python()
    errors = _syntax_errors(path.read_text(), path.name, version)
    assert errors == [], f"syntax newer than Python {version[0]}.{version[1]}: {errors}"


def test_the_version_lint_sees_an_except_star():
    assert _minimum_python() == (3, 10)
    grouped = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert _syntax_errors(grouped, "m.py", (3, 10)) == [
        "m.py: Exception groups are only supported in Python 3.11 and greater"]
    assert _syntax_errors(grouped, "m.py", (3, 11)) == []


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(node: ast.AST) -> Counter:
    """Names read under node: bare, attribute, quoted and imported-from names."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            # such as a re-export by __init__
            for alias in sub.names:
                refs[alias.name] += 1
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


def _orphans(trees: dict[str, ast.Module], private: bool) -> list[str]:
    """Undecorated top-level functions and classes that no module references.

    ``private`` picks the underscore names (dunders aside), else the public
    ones.  A reference through a definition's own body does not count.
    """
    refs: Counter = Counter()
    for tree in trees.values():
        refs += _references(tree)
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or node.name.startswith("_") != private:
                continue
            if node.decorator_list:
                continue
            if refs[node.name] - _references(node)[node.name] == 0:
                orphans.append(f"{name}:{node.name}")
    return orphans


_METHOD_DECORATORS = {"classmethod", "staticmethod", "property", "cached_property"}


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _orphan_methods(trees: dict[str, ast.Module]) -> list[str]:
    """Private methods of top-level classes whose name no module reads as an attribute.

    Plain methods and those decorated by ``_METHOD_DECORATORS`` are
    covered, dunders aside; a read inside the method's own body does not
    count.
    """
    reads: Counter = Counter()
    for tree in trees.values():
        reads += _attribute_reads(tree)
    orphans = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                private = (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                           and not node.name.startswith("__"))
                if not private or not all(isinstance(d, ast.Name) and d.id in _METHOD_DECORATORS
                                          for d in node.decorator_list):
                    continue
                if reads[node.name] - _attribute_reads(node)[node.name] == 0:
                    orphans.append(f"{name}:{cls.name}.{node.name}")
    return orphans


def _unread_assignments(trees: dict[str, ast.Module]) -> list[str]:
    """Private names assigned at module level that no module reads.

    A read is a bare name in load context, an attribute read or an
    imported-from name; dunders aside.
    """
    reads: Counter = Counter()
    for tree in trees.values():
        reads += _attribute_reads(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                reads[sub.id] += 1
            elif isinstance(sub, ast.ImportFrom):
                reads.update(alias.name for alias in sub.names)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Name) and sub.id.startswith("_")
                            and not sub.id.startswith("__") and reads[sub.id] == 0):
                        unread.append(f"{name}:{sub.id}")
    return unread


def _module_trees() -> dict[str, ast.Module]:
    return {path.name: _tree(path) for path in MODULES}


def test_every_private_helper_is_referenced():
    orphans = _orphans(_module_trees(), private=True)
    assert orphans == [], f"private helpers that no module references: {orphans}"


def test_every_private_method_is_read():
    orphans = _orphan_methods(_module_trees())
    assert orphans == [], f"private methods that no module reads: {orphans}"


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level packages that a module imports, absolute imports only."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_mpmath(path):
    # mpmath is the tests' independent oracle, not a dependency of the library
    assert "mpmath" not in _imported_modules(_tree(path))


def test_the_import_lint_sees_mpmath():
    tree = ast.parse("import mpmath.libmp as libmp\nfrom .arith import _ln_pair\n")
    assert _imported_modules(tree) == {"mpmath"}
    assert _imported_modules(ast.parse("from mpmath.libmp import mpf_log\n")) == {"mpmath"}


def test_every_private_module_name_is_read():
    unread = _unread_assignments(_module_trees())
    assert unread == [], f"private module-level names that no module reads: {unread}"


def test_every_public_definition_is_referenced_or_exported():
    orphans = _orphans(_module_trees(), private=False)
    assert orphans == [], f"public definitions that no module references or exports: {orphans}"


def test_the_lint_sees_an_unused_import_and_an_orphan():
    tree = ast.parse("from math import lcm, prod\n\ndef _helper(n):\n    return _helper(prod(n))\n")
    assert [n for n in _imported_names(tree) if n not in _used_names(tree)] == ["lcm"]
    helper = tree.body[1]
    assert _references(tree)["_helper"] - _references(helper)["_helper"] == 0
    assert _orphans({"m.py": tree}, private=True) == ["m.py:_helper"]
    # a public function is an orphan once __init__ no longer re-exports it
    layer = ast.parse("def point_color(p):\n    return sum(p) % 2\n")
    exported = ast.parse("from .lattice import point_color\n")
    assert _orphans({"lattice.py": layer, "__init__.py": ast.parse("")}, private=False) == [
        "lattice.py:point_color"]
    assert _orphans({"lattice.py": layer, "__init__.py": exported}, private=False) == []
    # a private method read only by itself is an orphan, whatever its decorator
    spec = ast.parse(
        "class SimplexSpec:\n"
        "    @classmethod\n"
        "    def _enclosed(cls, terms):\n"
        "        return cls._enclosed(terms[1:])\n"
        "    @cached_property\n"
        "    def _box(self):\n"
        "        return 1\n"
        "    def _row_end(self):\n"
        "        return self._box\n"
        "    def contains(self, x):\n"
        "        return x <= self._row_end()\n"
    )
    assert _orphan_methods({"geometry.py": spec}) == ["geometry.py:SimplexSpec._enclosed"]
    # a private constant that nothing reads, beside one that is read
    constants = ast.parse("_CONSTANT = 64\n_USED: int = 2\n\ndef scale(x):\n    return x * _USED\n")
    assert _unread_assignments({"geometry.py": constants}) == ["geometry.py:_CONSTANT"]
