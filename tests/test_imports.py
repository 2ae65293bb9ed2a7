"""Every module-level import of the package's modules is read by the module,
every private module-level name is read somewhere in the package, and every
exported name is defined where it is exported from."""

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
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants (one leading
    underscore) that no module of the package reads, as a bare name or as an
    attribute of the module."""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    reads = set()
    for tree in trees.values():
        reads |= read_names(tree)
        reads |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unread = []
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{stem}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in reads]
    return unread


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _defined_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def stale_exports(sources: dict[str, str]) -> list[str]:
    """Names in a module's ``__all__`` that the module does not define, and
    names ``__init__`` imports from a module whose ``__all__`` leaves them out."""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    exports = {stem: _exports(tree) for stem, tree in trees.items()}
    stale = [f"{stem}.{name}" for stem, tree in trees.items()
             for name in exports[stem] if name not in _defined_names(tree)]
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            stale += [f"__init__.{a.name}" for a in node.names
                      if a.name not in exports[node.module]]
    return stale


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


def test_every_private_helper_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_helper_scan_sees_unread_definitions():
    sources = {"a": "_USED = 1\n_DEAD: int = 2\ndef _dead():\n    return _USED\n"
                    "def _called():\n    pass\n",
               "b": "from . import a\n__all__ = []\nclass _Gone:\n    pass\na._called()\n"}
    assert unread_private_names(sources) == ["a._DEAD", "a._dead", "b._Gone"]


def test_every_export_is_defined_where_it_is_exported_from():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert stale_exports(sources) == []


def test_the_export_scan_sees_stale_names():
    sources = {"core": '__all__ = ["Plan", "Trajectory"]\nclass Plan:\n    pass\n',
               "solver": 'from .core import Plan\n__all__ = ["Plan", "solve"]\n'
                         'def solve():\n    pass\n',
               "__init__": "from .core import Plan\nfrom .solver import solve, step\n"
                           "from . import errors\n"}
    assert stale_exports(sources) == ["core.Trajectory", "__init__.step"]
