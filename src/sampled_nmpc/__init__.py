"""Sampling-based suboptimal nonlinear MPC.

A warm-started solver that improves a feasible input sequence by backward
single-position sample replacements, three benchmark plants, an operation
count model, and a JSON-configured experiment harness.

``import sampled_nmpc`` runs none of the package's modules.  Each public name
imports its defining module on first use (PEP 562), so a process that builds
a plant and solves loads ``core``, ``errors``, ``models``, ``sampling`` and
``solver`` only; ``bench``, ``complexity`` and ``cli`` load on first use of
one of their names.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule of the public namespace and the public names it defines.
_EXPORTS = {
    "core": ("BoxSet", "ConstraintSpec", "CostSpec", "EllipsoidSet", "FeasibilityReport",
             "ObstacleSet", "Plan", "PlantModel", "check_feasible", "evaluate_cost", "rollout",
             "shift_plan"),
    "sampling": ("SamplerConfig", "SamplerState", "draw_samples", "radical_inverse"),
    "solver": ("RunLog", "SolveResult", "SolverConfig", "StepRecord", "closed_loop",
               "find_oracle", "improve_plan", "make_warm_start"),
    "complexity": ("BoundSet", "ComplexityReport", "CostModel", "calibrate_cost_model",
                   "complexity_report", "predicted_bounds", "predicted_serial"),
    "models": ("Benchmark", "BuckBoostParams", "CartSpringParams", "WmrParams",
               "calibrate_buck_terminal_level", "make_benchmark"),
    "bench": ("ExperimentConfig", "RunArtifacts", "certify_run", "run_experiment", "sweep",
              "validate_run"),
    "errors": (),
}
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_DEFINED_IN]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    elif name in _DEFINED_IN:
        value = getattr(_import_module(f".{_DEFINED_IN[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
