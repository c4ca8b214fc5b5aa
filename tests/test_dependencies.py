"""numpy is the package's only runtime dependency: every module of
``src/impulsegames`` imports only the standard library, numpy and the
package itself.  Each module other than ``__init__`` also uses every name
it imports."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "impulsegames"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "impulsegames"}


def _imports(path):
    """``(line, top-level module)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    outside = [f"{path.name}:{line} imports {name}" for path in modules
               for line, name in _imports(path) if name not in ALLOWED]
    assert outside == []


def _unused_imports(path):
    """``(line, name)`` of every name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_use_every_name_they_import():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) > 5
    unused = [f"{path.name}:{line} imports {name}" for path in modules
              for line, name in _unused_imports(path)]
    assert unused == []
