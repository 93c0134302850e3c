"""Every name a package module imports is used in that module.

No linter ships with the project's toolchain, so this scan stands in for
pyflakes' F401 check: each module of ``src/doubleshot`` except
``__init__.py`` (which re-exports) is parsed with ``ast``, and an imported
name that the module never reads fails the test.  An import statement whose
first line carries ``# noqa: F401`` is exempt: it is kept on purpose, for
example because code outside the package looks the name up in that module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "doubleshot"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads, outside `# noqa: F401` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            imported.update(names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json, math\n"
        "from os import path as p, sep\n"
        "from sys import argv  # noqa: F401\n"
        "print(math.pi, p)\n"
    )
    assert unused_imports(source) == ["json", "sep"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
