"""No module of the package reads the process environment.

Every setting reaches the program as a command-line option or a function
argument, so output cannot depend on the shell it runs from.  The check walks
each module's syntax tree for ``os.environ`` / ``os.getenv`` (and their bytes
forms), by attribute or by ``from os import``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dho"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name in READERS]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment_variable(path):
    assert _environment_reads(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_way_of_reading():
    source = ("import os\nfrom os import getenv\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\nc = getenv('Z')\n")
    assert sorted(_environment_reads(source)) == ["environ (line 3)", "getenv (line 2)",
                                                  "getenv (line 4)"]
