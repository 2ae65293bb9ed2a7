"""Every module-level import of the package's modules is read by the module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sampled_nmpc"
# __init__.py is left out: its imports are the package's public names.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# Imported but never read, on purpose: the benchmark's tracer wraps this
# module global (SOLVER_GLOBALS in perfbench/tracing.py).
ALLOWED = {"solver.evaluate_cost"}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree) -> set[str]:
    """Names the module loads, including those inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    reads = read_names(tree)
    return [name for name in imported if name not in reads]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    unused = {f"{path.stem}.{name}" for name in unused_imports(path.read_text())}
    assert unused <= ALLOWED, f"unused imports: {sorted(unused - ALLOWED)}"


def test_the_scan_sees_plain_and_annotation_reads():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom typing import Optional\n"
              "from .core import Plan, Trajectory\n"
              "def f(x: 'Optional[Plan]') -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os", "Trajectory"]
