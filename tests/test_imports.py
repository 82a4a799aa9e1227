"""Every name a ``regraph`` or test module imports is used by that module.

No linter runs on this repository, so this keeps dead imports out.  Exempt
are ``from __future__`` imports, names listed in ``__all__`` and explicit
``import x as x`` re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "regraph").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name.split(".")[-1]:
                    continue  # explicit re-export
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "PermTower"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_detector_flags_unused_and_respects_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "from typing import Optional, Sequence\n"
        "from .words import counts_by_length as counts_by_length\n"
        "from .errors import RegraphError\n"
        "__all__ = ['RegraphError']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return sys.maxsize\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
