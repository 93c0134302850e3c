"""Every name a package module imports is used in that module, and every
private module-level name is read somewhere in the package.

No linter ships with the project's toolchain, so this scan stands in for
pyflakes' F401 check: each module of ``src/doubleshot`` except
``__init__.py`` (which re-exports) is parsed with ``ast``, and an imported
name that the module never reads fails the test.  An import statement whose
first line carries ``# noqa: F401`` is exempt: it is kept on purpose, for
example because code outside the package looks the name up in that module.

The second scan stands in for a dead-code check: a module-level private
function, class or constant (``_name``) that no other statement of any
module in ``src/doubleshot`` reads, as a name, an attribute or an import,
fails the test.

The third scan checks the declared dependencies: every top-level module the
package imports must be in the standard library or named in ``[project]
dependencies`` of ``pyproject.toml``.

The fourth scan checks the package's exports: ``doubleshot.__all__`` names
each export once, and each name in it is an attribute of the package, so
``from doubleshot import *`` cannot fail on a name left behind.

The fifth scan checks what the benchmark reads: every ``from doubleshot[...]
import name`` in ``perfbench/**/*.py``, function-local imports included,
must resolve, so that a deleted name fails here and not in every benchmark
run at import.
"""

import ast
import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import doubleshot

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "doubleshot"
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


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level ``_name`` functions, classes and constants, by name."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = stmt
    return defined


def referenced_names(node: ast.AST) -> set[str]:
    """Names *node* reads, as a variable, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module:_name`` for each private definition no other statement reads.

    A definition's own body does not count, so a private function that only
    calls itself is dead too.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = [
        (stmt, referenced_names(stmt)) for tree in trees.values() for stmt in tree.body
    ]
    dead = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree).items():
            others = (names for stmt, names in reads if stmt is not definition)
            if not any(name in names for names in others):
                dead.append(f"{module}:{name}")
    return sorted(dead)


def test_scan_finds_a_dead_private_name():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "def _loop(n):\n"
            "    return _loop(n - 1) if n else _USED\n"
            "def _helper():\n"
            "    return 0\n"
            "class _Shape:\n"
            "    pass\n"
            "__all__ = []\n"
        ),
        "b": "from .a import _helper\nimport a\nprint(_helper(), a._Shape)\n",
    }
    assert dead_private_names(sources) == ["a:_UNUSED", "a:_loop"]


def test_package_has_no_dead_private_names():
    sources = {
        p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
    }
    assert dead_private_names(sources) == []


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies``, from their distribution names."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in requirements
    }


def undeclared_imports(source: str, declared: set[str]) -> list[str]:
    """Top-level modules *source* imports that are neither stdlib nor declared."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    allowed = sys.stdlib_module_names | declared
    return sorted(m for m in modules if m not in allowed)


def test_scan_finds_an_undeclared_import():
    source = (
        "from __future__ import annotations\n"
        "import json, numpy.linalg\n"
        "from . import pauli\n"
        "from .errors import InvalidInputError\n"
        "import scipy\n"
        "from yaml import safe_load\n"
    )
    assert undeclared_imports(source, {"numpy"}) == ["scipy", "yaml"]


@pytest.mark.parametrize(
    "module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_only_declared_dependencies(module):
    source = module.read_text(encoding="utf-8")
    assert undeclared_imports(source, declared_dependencies()) == []


def export_faults(module: types.ModuleType) -> list[str]:
    """Names *module* lists in ``__all__`` twice, or that it does not define."""
    names = list(module.__all__)
    twice = {name for name in names if names.count(name) > 1}
    return sorted(twice | {name for name in names if not hasattr(module, name)})


def test_scan_finds_a_stale_export():
    module = types.ModuleType("fake")
    module.kept = module.twice = object()
    module.__all__ = ["kept", "twice", "stale", "twice"]
    assert export_faults(module) == ["stale", "twice"]


def test_package_exports_are_defined_once():
    assert export_faults(doubleshot) == []


def unresolved_imports(source: str) -> list[str]:
    """``module:name`` for each ``from doubleshot[...] import name`` that fails.

    A name resolves as Python's import does: as an attribute of the module,
    or as a submodule of it.
    """
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0):
            continue
        if node.module.split(".")[0] != "doubleshot":
            continue
        module = importlib.import_module(node.module)
        for alias in node.names:
            if hasattr(module, alias.name):
                continue
            try:
                importlib.import_module(f"{node.module}.{alias.name}")
            except ImportError:
                missing.append(f"{node.module}:{alias.name}")
    return sorted(missing)


def test_scan_finds_an_unresolved_import():
    source = (
        "from os import path\n"
        "from doubleshot import estimate, allocator, Gone\n"
        "from doubleshot.posterior import MomentEngine, MomentConfig\n"
        "def trace():\n"
        "    from doubleshot.ledger import TallyLedger, _gone\n"
    )
    assert unresolved_imports(source) == [
        "doubleshot.ledger:_gone",
        "doubleshot.posterior:MomentConfig",
        "doubleshot:Gone",
    ]


@pytest.mark.parametrize(
    "source",
    sorted((ROOT / "perfbench").rglob("*.py")),
    ids=lambda p: p.relative_to(ROOT / "perfbench").as_posix(),
)
def test_perfbench_imports_resolve(source):
    assert unresolved_imports(source.read_text(encoding="utf-8")) == []
