"""Every top-level function and class of the package, and every non-dunder
method, is referenced from outside the tests.

A name that only tests reach is dead code with a test attached.  References
count from the package, ``scripts/`` and ``perfbench/``: a name or an
attribute, or a string constant that spells the name (alone or as one part
of a dotted path), since the tracer names its targets by string.  Docstrings
do not count.  A method counts only when it is used as an attribute.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dho"
REFERRING = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _definitions(tree: ast.Module, module: str):
    """(label, name, is_method) of the top-level functions and classes and the
    non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of the module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names, attributes) the tree uses; strings count as names."""
    names, attributes = set(), set()
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names, attributes


def unused_names(package: Path, referring: list[Path]) -> list[str]:
    """Labels of the package definitions that no referring file uses."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in referring for path in sorted(root.glob("*.py"))}
    names, attributes = set(), set()
    for tree in trees.values():
        n, a = _references(tree)
        names |= n
        attributes |= a
    unused = []
    for path in sorted(package.glob("*.py")):
        for label, name, is_method in _definitions(trees[path], path.stem):
            used = name in attributes if is_method else name in names | attributes
            if not used:
                unused.append(label)
    return unused


def test_every_definition_is_used_outside_the_tests():
    assert unused_names(PACKAGE, REFERRING) == []


def test_the_check_sees_a_name_only_tests_use(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        '"""used_in_docstring"""\n'
        "def used(): return Kept().method()\n"
        "HANDLERS = [used]\n"
        "def dead(): pass\n"
        "def traced(): pass\n"
        "TARGETS = ('mod.traced',)\n"
        "class Kept:\n"
        "    def method(self): pass\n"
        "    def by_name_only(self): pass\n"
        "    def __repr__(self): return by_name_only\n"
        "def used_in_docstring(): pass\n")
    assert unused_names(package, [package]) == [
        "mod.dead", "mod.Kept.by_name_only", "mod.used_in_docstring"]
