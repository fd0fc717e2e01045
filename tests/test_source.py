import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "permlat"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """Names a module imports and never references (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_gate_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [(1, "os"),
                                                                                  (2, "d")]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))}
    assert found == {}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """Top-level modules a module imports that are neither in the standard
    library nor ``permlat`` (relative imports are ``permlat``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, top) for top in (name.split(".")[0] for name in names)
                  if top != "permlat" and top not in sys.stdlib_module_names]
    return found


def test_the_gate_sees_a_foreign_import():
    assert foreign_imports("import os, numpy.linalg\nfrom . import x\nfrom permlat import y\n"
                           "from scipy import z\n") == [(1, "numpy"), (4, "scipy")]


def test_the_package_needs_only_the_standard_library():
    found = {path.name: foreign for path in sorted(SRC.glob("*.py"))
             if (foreign := foreign_imports(path.read_text()))}
    assert found == {}
    assert "dependencies = []" in (ROOT / "pyproject.toml").read_text().splitlines()
