"""Every module of the package uses each name it imports.

No linter runs on the sources, so this walks each ``src/bishift/*.py``
with ``ast`` and lists the imported names that its code never reads.
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bishift"


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_finder_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "def f():\n"
        "    from re import sub\n"
        "    return os.path.join(js.dumps(pi))\n"
    )
    assert unused_imports(source) == ["line 4: tau", "line 6: sub"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
