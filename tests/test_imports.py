"""Every name a module imports is used in it: a simplification that removes
the last use of an import removes the import too.  The package's
``__init__.py``, whose imports are its re-exports, is not checked."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "helmscat").glob("*.py")
                 if p.name != "__init__.py") + sorted(
                     (ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of ``source`` that no other
    statement reads: ``import a.b`` binds ``a``, ``from m import x as y``
    binds ``y``; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_finder_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads as parse\n"
              "x = np.zeros(3)\ny = os.path.join('a')\nz = parse('1')\n")
    assert unused_imports(source) == ["dumps", "math"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
