"""A stdlib lint: each name a ``sirctl`` module imports is read in it.

A deletion can leave an import behind that no code reads. ``ast`` finds it
with nothing to install. ``__init__.py`` is skipped: its imports are the
package's exports.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sirctl"


def unread_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order.

    ``import a.b`` binds ``a``, and ``from __future__`` imports bind
    nothing. A name read only inside a quoted annotation counts as unread:
    every module imports ``annotations`` from ``__future__``, so none needs
    the quotes.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_the_lint_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Optional\nfrom .core import A, B as C\n"
              "def f(x: Optional[A]) -> np.ndarray:\n    return os.sep\n")
    assert unread_imports(source) == ["C"]


MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_read(name):
    assert unread_imports((SRC / name).read_text()) == []
