"""Module boundaries: no package module uses another module's private names,
the package imports no third-party module beyond numpy and one scipy
function, every function the benchmark's tracer wraps exists, the
arguments it reads are where it reads them, and README names each binary
format's magic."""

import ast
import importlib
import inspect
import sys
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


def third_party_imports() -> list[str]:
    """``file: import`` for each import, at any depth, of a package outside the standard library."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.partition(".")[0] not in sys.stdlib_module_names for name in names):
                found.append(f"{path.name}: {ast.unparse(node)}")
    return found


def test_third_party_imports_are_pinned():
    # every workload's setup_s counts `import mlpst`; scipy.special alone
    # costs about 0.3 s of it, so another scipy module, or a numpy
    # submodule, is a measurable slowdown that must be chosen, not slipped in
    imports = third_party_imports()
    assert [line for line in imports if not line.endswith(": import numpy as np")] == [
        "tensor.py: from scipy.special import erf"
    ]
    assert len(imports) > 1


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


# the positional arguments that bench/tracer.py reads by index, by name: a
# reordering would skew a per-layer metric and fail nothing else
TRACER_ARGS = {
    "mixer.batch_forward": {1: "params"},
    "mixer.batch_backward": {2: "params"},
    "mixer.spatial_mixer_fwd": {0: "x"},
    "mixer.temporal_mixer_fwd": {1: "p"},
    "mixer.temporal_mixer_bwd": {2: "p"},
    "training.gather_windows": {1: "anchors", 2: "cfg"},
    "griddata.slice_dependencies": {0: "history", 1: "cfg"},
    "training.predict_batches": {2: "anchors"},
    "checkpoint.save_checkpoint": {0: "path"},
}


def tracer_arg_reads() -> dict[str, set[int]]:
    """``name -> {i}`` for each ``args[i]`` under ``if name == "<name>"`` in bench/tracer.py."""
    reads: dict[str, set[int]] = {}
    for node in ast.walk(ast.parse((ROOT / "bench" / "tracer.py").read_text())):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name) and node.test.left.id == "name"):
            continue
        name = node.test.comparators[0].value
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "args"):
                    reads.setdefault(name, set()).add(sub.slice.value)
    return reads


def test_tracer_reads_the_arguments_it_expects():
    assert tracer_arg_reads() == {name: set(pins) for name, pins in TRACER_ARGS.items()}
    for name, pins in TRACER_ARGS.items():
        module, _, fname = name.partition(".")
        fn = getattr(importlib.import_module(f"mlpst.{module}"), fname)
        params = list(inspect.signature(fn).parameters)
        assert {i: params[i] for i in pins} == pins, name


def test_readme_file_formats_name_each_magic():
    from mlpst import checkpoint, ingestion

    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    for magic in (checkpoint.MAGIC, ingestion.MAGIC):
        assert f"`{magic.decode()}`" in section
