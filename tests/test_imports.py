"""Every module-level import of the package's modules is read by the module,
every private module-level name is read somewhere in the package, every
exported name is defined where it is exported from, and the package's
namespace is the pinned one, each module loaded on first use of its names."""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sampled_nmpc

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sampled_nmpc"
MODULES = sorted(PACKAGE.glob("*.py"))

# The package's public names: seven submodules and the 43 names they define.
SUBMODULES = ("bench", "complexity", "core", "errors", "models", "sampling", "solver")
PUBLIC_NAMES = SUBMODULES + (
    "Benchmark", "BoundSet", "BoxSet", "BuckBoostParams", "CartSpringParams", "ComplexityReport",
    "ConstraintSpec", "CostModel", "CostSpec", "EllipsoidSet", "ExperimentConfig",
    "FeasibilityReport", "ObstacleSet", "Plan", "PlantModel", "RunArtifacts", "RunLog",
    "SamplerConfig", "SamplerState", "SolveResult", "SolverConfig", "StepRecord", "WmrParams",
    "calibrate_buck_terminal_level", "calibrate_cost_model", "certify_run", "check_feasible",
    "closed_loop", "complexity_report", "draw_samples", "evaluate_cost", "find_oracle",
    "improve_plan", "make_benchmark", "make_warm_start", "predicted_bounds", "predicted_serial",
    "radical_inverse", "rollout", "run_experiment", "shift_plan", "sweep", "validate_run")

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


def _literal(tree, name: str, default):
    """The literal value the module assigns to ``name``, else ``default``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return default


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
    names ``__init__``'s ``_EXPORTS`` table gives to a module whose
    ``__all__`` leaves them out.  (``__init__``'s own ``__all__`` is computed
    from the table.)"""
    trees = {stem: ast.parse(source) for stem, source in sources.items()}
    init = trees.pop("__init__")
    exports = {stem: _literal(tree, "__all__", []) for stem, tree in trees.items()}
    stale = [f"{stem}.{name}" for stem, tree in trees.items()
             for name in exports[stem] if name not in _defined_names(tree)]
    for module, names in _literal(init, "_EXPORTS", {}).items():
        stale += [f"__init__.{name}" for name in names if name not in exports.get(module, ())]
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
               "__init__": '_EXPORTS = {"core": ("Plan",), "solver": ("solve", "step"), '
                           '"errors": (), "gone": ("lost",)}\n'
                           '__all__ = [*_EXPORTS, *(n for ns in _EXPORTS.values() for n in ns)]\n'}
    assert stale_exports(sources) == ["core.Trajectory", "__init__.step", "__init__.lost"]


def test_a_solving_process_loads_only_the_solver_path():
    # A fresh interpreter: dir() names every public name without importing
    # anything, and building a plant and a solver config loads no bench,
    # complexity or cli.
    code = (f"import json, sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import sampled_nmpc; names = dir(sampled_nmpc); "
            "before = sorted(m for m in sys.modules if m.startswith('sampled_nmpc')); "
            "sampled_nmpc.make_benchmark('buck-boost', 10); "
            "sampled_nmpc.SolverConfig(horizon=10); "
            "after = sorted(m for m in sys.modules if m.startswith('sampled_nmpc')); "
            "print(json.dumps([names, before, after]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    names, before, after = json.loads(out)
    assert set(PUBLIC_NAMES) <= set(names)
    assert before == ["sampled_nmpc"]
    assert after == ["sampled_nmpc"] + [f"sampled_nmpc.{m}" for m in
                                         ("core", "errors", "models", "sampling", "solver")]


def test_the_public_namespace_is_pinned():
    star = {}
    exec("from sampled_nmpc import *", star)
    assert sorted(sampled_nmpc.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(sampled_nmpc))
    for name in PUBLIC_NAMES:
        value = getattr(sampled_nmpc, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"sampled_nmpc.{name}"]
        else:
            assert not isinstance(value, types.ModuleType)
            assert value.__module__.startswith("sampled_nmpc.")
            assert value is getattr(sys.modules[value.__module__], name)
        assert star[name] is value


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sampled_nmpc.no_such_name
