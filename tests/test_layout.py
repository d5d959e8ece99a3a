"""Module boundaries: no package module uses another module's private names,
and every function the benchmark's tracer wraps exists."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mlpst"
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


def traced_names() -> dict[str, tuple[str, ...]]:
    """``TRACED`` of ``bench/tracer.py``, read without importing the benchmark."""
    for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no TRACED")


def test_every_traced_function_exists():
    # the tracer skips a missing name without a word, and its per-layer metric reads 0
    traced = traced_names()
    missing = [
        f"{module}.{name}" for module, names in traced.items() for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == [] and sum(map(len, traced.values())) > 0
