import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "permlat"


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
