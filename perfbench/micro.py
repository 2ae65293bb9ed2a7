"""Isolated timings of single layer operations at a workload's own plant and
settings, and the wall-clock calibration of the paper's closed form.

Each operation is warmed up, then timed in samples of enough back-to-back
calls to span about a millisecond; the reported value is the median sample
divided by its call count.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

from sampled_nmpc import (Plan, SamplerState, calibrate_cost_model, draw_samples,
                          evaluate_cost, find_oracle, improve_plan, make_warm_start,
                          predicted_serial, rollout)

from workloads import Workload

SAMPLE_SECONDS = 1e-3
OP_SECONDS = 0.4
CALIBRATION_REPEATS = 2000


def median_call_seconds(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    calls = max(1, int(SAMPLE_SECONDS / once))
    samples = min(25, max(5, int(OP_SECONDS / (calls * once))))
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def layer_timings(workload: Workload, x0: np.ndarray, sampler_seed: int) -> dict[str, float]:
    """Microseconds per call of each layer operation, keyed ``micro.<op>_us``."""
    bench = workload.build()
    model, constraints, cost = bench.model, bench.constraints, bench.cost
    cfg = workload.solver_config(sampler_seed)
    n_j = workload.samples
    stream = SamplerState(cfg.sampler)
    rows_u = draw_samples(SamplerState(cfg.sampler), constraints.input_box, n_j)
    rows_x = np.tile(x0, (n_j, 1))
    u = rows_u[0]
    warm = find_oracle(x0, model, constraints, cost, cfg)
    solved = improve_plan(x0, warm, model, constraints, cost, cfg)
    x1 = model.step(x0, solved.plan.inputs[0])
    ops = {
        "draw_samples": lambda: draw_samples(stream, constraints.input_box, n_j),
        "step": lambda: model.step(x0, u),
        "batch_step": lambda: model.batch_step(rows_x, rows_u),
        "states_ok_rows": lambda: constraints.states_ok_rows(rows_x),
        "stage_cost": lambda: cost.stage_cost(0, x0, u),
        "terminal_cost": lambda: cost.terminal_cost(x0),
        "improve_plan": lambda: improve_plan(x0, warm, model, constraints, cost, cfg),
        "make_warm_start": lambda: make_warm_start(solved, x1, model, constraints, cfg),
        "find_oracle": lambda: find_oracle(x0, model, constraints, cost, cfg),
    }
    return {f"micro.{name}_us": 1e6 * median_call_seconds(fn) for name, fn in ops.items()}


def calibrated_closed_form(workload: Workload, improve_plan_us: float) -> dict[str, float]:
    """c1 (one plant step plus its feasibility test) and c2 (one full cost
    evaluation) in microseconds, measured as ``sampled-nmpc calibrate`` does,
    and the measured ``improve_plan`` time over the calibrated prediction."""
    bench = workload.build()
    model, constraints, cost = bench.model, bench.constraints, bench.cost
    u_mid = 0.5 * (constraints.input_box.lower + constraints.input_box.upper)
    x = bench.default_x0
    plan = Plan(np.tile(u_mid, (workload.horizon, 1)))
    traj = rollout(model, x, plan)
    unit = calibrate_cost_model(lambda: constraints.state_ok(model.step(x, u_mid)),
                                lambda: evaluate_cost(cost, traj, plan),
                                repeats=CALIBRATION_REPEATS)
    counts = workload.solver_config(0).sample_counts
    predicted_us = 1e6 * predicted_serial(counts, workload.horizon, unit)
    return {"complexity.c1_us": 1e6 * unit.c1, "complexity.c2_us": 1e6 * unit.c2,
            "complexity.time_ratio": improve_plan_us / predicted_us}
