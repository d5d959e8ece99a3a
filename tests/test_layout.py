"""Module boundaries: no package module uses another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mlpst"
MODULES = {path.stem for path in SRC.glob("*.py")}


def private_uses(path: Path) -> list[str]:
    """``file:line name`` for each private name that ``path`` takes from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES - {path.stem}):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} {name}" for name in names
            if name.rpartition(".")[2].startswith("_")
            and not name.rpartition(".")[2].startswith("__")
        ]
    return found


def test_no_module_uses_another_modules_private_names():
    assert [use for path in sorted(SRC.glob("*.py")) for use in private_uses(path)] == []
