"""Every imported name is read: an import that no expression reads fails here.

Covers the Python files of ``src/``, ``tests/``, ``demos/`` and ``perfbench/``
with the standard library's ``ast``.  A name counts as read when some ``Name``
node loads it anywhere in the module; ``from __future__`` imports and the
names a module lists in ``__all__`` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "demos", "perfbench")


def unread_imports(source: str) -> list[str]:
    """The names a module's import statements bind that no expression in it reads, in source order."""
    tree = ast.parse(source)
    imported, read, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            # a literal list of names; a computed `__all__` exempts nothing
            exported.update(getattr(elt, "value", None) for elt in getattr(node.value, "elts", ()))
    return [name for name in imported if name not in read and name not in exported and name != "*"]


def _sources():
    return sorted(path for tree in TREES for path in (ROOT / tree).rglob("*.py"))


def test_every_import_is_read():
    sources = _sources()
    assert {path.relative_to(ROOT).parts[0] for path in sources} == set(TREES)
    unread = {
        str(path.relative_to(ROOT)): names
        for path in sources
        if (names := unread_imports(path.read_text(encoding="utf-8")))
    }
    assert unread == {}


def test_an_unread_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from math import pi, tau as turn\n"
        "__all__ = ['pi']\n"
        "print(json.dumps(os.sep))\n"
    )
    assert unread_imports(source) == ["osp", "turn"]
