"""Operation-count model for one backward sweep: the closed-form workload,
its bounds and the exact counters of a solve where no candidate violates a
constraint.

A candidate at horizon position j costs N-j plant-step-plus-feasibility
evaluations (unit cost c1) and one full cost evaluation (unit cost c2);
comparisons and bookkeeping are treated as free.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import _floats, _integer
from .errors import ContractViolationError

__all__ = [
    "CostModel",
    "BoundSet",
    "ComplexityReport",
    "predicted_serial",
    "predicted_bounds",
    "complexity_report",
    "calibrate_cost_model",
]


@dataclass(frozen=True)
class CostModel:
    """Unit costs: c1 per plant step + feasibility test, c2 per full cost
    evaluation, finite positive numbers (``_floats``'s rule).  Units are
    abstract operation counts unless calibrated."""

    c1: float = 1.0
    c2: float = 1.0
    units: str = "ops"

    def __post_init__(self):
        for name in ("c1", "c2"):
            object.__setattr__(self, name, float(_floats(getattr(self, name), name, ())))
        if not (self.c1 > 0 and self.c2 > 0):
            raise ContractViolationError("unit costs must be positive")


class BoundSet(NamedTuple):
    """The three closed-form workload bounds for a sweep with n_j <= n_bar."""

    serial_bound: float
    full_parallel: float
    p_parallel: float


@dataclass(frozen=True)
class ComplexityReport:
    """Predicted work of one solve: the exact workload, its bounds and the
    counters a solve reports when no candidate violates a constraint (a
    violating candidate counts fewer steps and no cost evaluation)."""

    serial_exact: float
    serial_bound: float
    full_parallel: float
    p_parallel: float
    predicted_f_evals: int
    predicted_cost_evals: int


def predicted_serial(n_list: Sequence[int], big_n: int, model: CostModel) -> float:
    """Exact serial workload: c1 * sum_j (N-j) n_j + c2 * sum_j n_j."""
    if len(n_list) != big_n:
        raise ContractViolationError(f"need {big_n} sample counts, got {len(n_list)}")
    f_ops = sum((big_n - j) * n for j, n in enumerate(n_list))
    cost_ops = sum(n_list)
    return model.c1 * f_ops + model.c2 * cost_ops


def predicted_bounds(n_bar: int, big_n: int, model: CostModel, p: int) -> BoundSet:
    """Workload bounds for n_j <= n_bar: the all-serial bound, the bound with
    one thread per sample, and the bound with p processors (each position
    waits for all its candidates before the sweep moves on)."""
    n_bar, big_n, p = (_integer(v, name, -math.inf) for v, name in
                       ((n_bar, "n_bar"), (big_n, "N"), (p, "p")))
    if n_bar < 0 or big_n < 1 or p < 1:
        raise ContractViolationError("need n_bar >= 0, N >= 1, p >= 1")
    triangle = big_n * (big_n + 1) / 2
    serial_bound = n_bar * model.c1 * triangle + model.c2 * big_n * n_bar
    full_parallel = model.c1 * triangle + model.c2 * big_n
    p_parallel = math.ceil(n_bar / p) * full_parallel
    return BoundSet(serial_bound, full_parallel, p_parallel)


def complexity_report(n_list: Sequence[int], big_n: int, model: CostModel,
                      p: int) -> ComplexityReport:
    """Bundle the exact prediction, the exact counters and the bounds at
    n_bar = max(n_j) into one report."""
    n_list = [_integer(n, "sample count", 0) for n in n_list]
    n_bar = max(n_list) if n_list else 0
    bounds = predicted_bounds(n_bar, big_n, model, p)
    return ComplexityReport(
        serial_exact=predicted_serial(n_list, big_n, model),
        serial_bound=bounds.serial_bound,
        full_parallel=bounds.full_parallel,
        p_parallel=bounds.p_parallel,
        predicted_f_evals=sum((big_n - j) * n for j, n in enumerate(n_list)),
        predicted_cost_evals=sum(n_list),
    )


def calibrate_cost_model(step, cost_eval, repeats: int = 1000) -> CostModel:
    """Estimate c1 and c2 in seconds as medians over timed evaluations.

    ``step`` must run one plant step plus its feasibility test; ``cost_eval``
    one full cost evaluation.  Both are called with no arguments.
    """
    if _integer(repeats, "repeats", -math.inf) < 1:
        raise ContractViolationError("repeats must be >= 1")

    def median_seconds(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    return CostModel(c1=max(median_seconds(step), 1e-12),
                     c2=max(median_seconds(cost_eval), 1e-12),
                     units="seconds")
