"""Sampling-based suboptimal nonlinear MPC.

A warm-started solver that improves a feasible input sequence by backward
single-position sample replacements, three benchmark plants, an operation
count model, and a JSON-configured experiment harness.
"""

from .core import (
    BoxSet,
    ConstraintSpec,
    CostSpec,
    EllipsoidSet,
    FeasibilityReport,
    ObstacleSet,
    Plan,
    PlantModel,
    check_feasible,
    evaluate_cost,
    rollout,
    shift_plan,
)
from .sampling import SamplerConfig, SamplerState, draw_samples, radical_inverse
from .solver import (
    RunLog,
    SolveResult,
    SolverConfig,
    StepRecord,
    closed_loop,
    find_oracle,
    improve_plan,
    make_warm_start,
)
from .complexity import (
    BoundSet,
    ComplexityReport,
    CostModel,
    calibrate_cost_model,
    complexity_report,
    predicted_bounds,
    predicted_serial,
)
from .models import (
    Benchmark,
    BuckBoostParams,
    CartSpringParams,
    WmrParams,
    calibrate_buck_terminal_level,
    make_benchmark,
    terminal_set,
)
from .bench import ExperimentConfig, RunArtifacts, certify_run, run_experiment, sweep, validate_run
from . import errors

__version__ = "0.1.0"
