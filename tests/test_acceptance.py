"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest -s`` to watch them stream).

Closed-loop criteria run the shipped ``closed_loop`` and certify its log with
``certify_run``; each step record carries its warm start's cost, so the
dominance checks are exact.  The published bounds (2.65, 4.5, 22.5, 0.47,
...) are also checked as literals, independently of ``models.py``.
"""

import csv
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from sampled_nmpc import (
    CostModel,
    ExperimentConfig,
    SamplerConfig,
    SolverConfig,
    check_feasible,
    closed_loop,
    evaluate_cost,
    find_oracle,
    improve_plan,
    make_benchmark,
    predicted_bounds,
    predicted_serial,
    rollout,
    run_experiment,
)
from sampled_nmpc.models import CONVERGENCE_TOL_INF

from test_bench import certify_log
from test_solver import brute_force_backward_sweep


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def certified_closed_loop(bench, cfg, x0, steps):
    """The shipped closed loop's log, and whether ``certify_run`` finds it clean."""
    log = closed_loop(bench.model, bench.constraints, bench.cost, cfg, x0, steps)
    return log, certify_log(bench, cfg, x0, log) == []


def csv_without_elapsed(path):
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ms")
    return "\n".join(",".join(v for i, v in enumerate(row) if i != drop) for row in rows)


@pytest.fixture(scope="module")
def cart_sweep_runs():
    """The shared cart-spring closed loops for criteria 1-3."""
    bench = make_benchmark("cart-spring", 10, None)
    x0 = np.array([-2.5, 3.0])
    t0 = time.perf_counter()
    runs = {}
    for n_bar in (5, 10, 30):
        cfg = SolverConfig(horizon=10, samples_per_step=n_bar,
                           sampler=SamplerConfig(scheme="halton", seed=3))
        runs[n_bar] = certified_closed_loop(bench, cfg, x0, 20)
    return runs, time.perf_counter() - t0


def test_criterion_01_cost_monotonicity(cart_sweep_runs):
    runs, elapsed = cart_sweep_runs
    certified = all(clean for _, clean in runs.values())
    dominated = all(rec.j_sub <= rec.j_warm for log, _ in runs.values() for rec in log.records)
    early_improvement = all(sum(rec.improvements for rec in log.records[:5]) >= 1
                            for log, _ in runs.values())
    report(1, "cost monotonicity over the cart closed loop",
           certified and dominated and early_improvement and elapsed < 5.0,
           f"elapsed {elapsed:.2f}s")


def test_criterion_02_recursive_feasibility(cart_sweep_runs):
    runs, _ = cart_sweep_runs
    ok = True
    for log, clean in runs.values():
        ok &= clean and bool(np.all(np.abs(log.states[:, 0]) <= 2.65))
        ok &= all(abs(rec.applied_input[0]) <= 4.5 for rec in log.records)
    report(2, "state and input constraints hold at all times, zero tolerance", ok)


def test_criterion_03_convergence_surrogate(cart_sweep_runs):
    runs, _ = cart_sweep_runs
    log, clean = runs[30]
    final_norm = float(np.max(np.abs(log.states[20])))
    report(3, "cart state near the origin after 20 steps with 30 samples",
           clean and final_norm < CONVERGENCE_TOL_INF,
           f"|x|_inf = {final_norm:.4f} < {CONVERGENCE_TOL_INF}")


def test_criterion_04_counter_exactness():
    # The robot without its obstacle has no state constraint a candidate can
    # violate, so every candidate counts all its N - j steps and one cost.
    bench = make_benchmark("wmr", 10, {"obstacle": None})
    cfg = SolverConfig(horizon=10, samples_per_step=10, warm_start_mode="feasible-sample",
                       sampler=SamplerConfig(scheme="halton", seed=3))
    t0 = time.perf_counter()
    log, clean = certified_closed_loop(bench, cfg, bench.default_x0, 3)
    elapsed = time.perf_counter() - t0
    ok = all(rec.f_evals == 550 and rec.cost_evals == 100 for rec in log.records)
    report(4, "counters equal the workload formula exactly when no candidate violates",
           clean and ok and elapsed < 1.0, f"elapsed {elapsed:.2f}s")


def test_criterion_05_bound_arithmetic():
    t0 = time.perf_counter()
    bounds = predicted_bounds(10, 10, CostModel(), p=3)
    exact_example = bounds == (650.0, 65.0, 260.0)
    rng = np.random.Generator(np.random.Philox(key=5))
    property_ok = True
    for _ in range(100):
        n_bar = int(rng.integers(0, 41))
        big_n = int(rng.integers(1, 31))
        model = CostModel(c1=float(rng.uniform(0.01, 10)), c2=float(rng.uniform(0.01, 10)))
        p = int(rng.integers(1, 61))
        serial = predicted_serial([n_bar] * big_n, big_n, model)
        b = predicted_bounds(n_bar, big_n, model, p)
        property_ok &= math.isclose(serial, b.serial_bound, rel_tol=1e-12, abs_tol=0.0)
        property_ok &= predicted_bounds(n_bar, big_n, model, p + 1).p_parallel <= b.p_parallel
        if p >= max(n_bar, 1):
            property_ok &= b.p_parallel == (b.full_parallel if n_bar else 0.0)
    elapsed = time.perf_counter() - t0
    report(5, "workload bound arithmetic and identities",
           exact_example and property_ok and elapsed < 1.0, f"elapsed {elapsed:.2f}s")


def test_criterion_06_parallel_determinism(tmp_path):
    t0 = time.perf_counter()
    contents = []
    for lanes in (1, 2, 8):
        config = ExperimentConfig(config_id="det", plant="cart-spring", horizon=10,
                                  steps=20, samples_per_step=10,
                                  sampler=SamplerConfig(scheme="halton", seed=3),
                                  lanes=lanes)
        artifacts = run_experiment(config, str(tmp_path / f"lanes{lanes}"))
        contents.append(csv_without_elapsed(artifacts.csv_path))
    elapsed = time.perf_counter() - t0
    ok = contents[0] == contents[1] == contents[2]
    report(6, "per-step CSVs identical for 1, 2 and 8 lanes",
           ok and elapsed < 10.0, f"elapsed {elapsed:.2f}s")


def test_criterion_07_small_instance_oracle_equivalence():
    bench = make_benchmark("cart-spring", 2, None)
    rng = np.random.Generator(np.random.Philox(key=7))
    cfg_probe = SolverConfig(horizon=2, samples_per_step=0,
                             sampler=SamplerConfig(scheme="grid"), oracle_budget=512)
    t0 = time.perf_counter()
    states = []
    while len(states) < 20:
        x0 = rng.uniform(-1.5, 1.5, 2)
        try:
            find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg_probe)
        except Exception:
            continue
        states.append(x0)
    ok = True
    for count in (3, 5):
        cfg = SolverConfig(horizon=2, samples_per_step=count,
                           sampler=SamplerConfig(scheme="grid"), oracle_budget=512)
        for x0 in states:
            warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
            result = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
            _, expected = brute_force_backward_sweep(bench, x0, warm, (count, count),
                                                     cfg.sampler)
            ok &= result.j_sub == expected
    elapsed = time.perf_counter() - t0
    report(7, "solver matches the exhaustive backward replacement sweep exactly",
           ok and elapsed < 5.0, f"20 states x 2 sample counts, {elapsed:.2f}s")


def test_criterion_08_terminal_ingredients():
    from test_models import ellipsoid_value, halton_points_in_ellipsoid
    from sampled_nmpc import terminal_set

    bench = make_benchmark("cart-spring", 10, None)
    ell = terminal_set("cart-spring")
    t0 = time.perf_counter()
    points = halton_points_in_ellipsoid(ell, 1000)
    ok = True
    for x in points:
        u = bench.model.terminal_law(x)
        x_next = bench.model.step(x, u)
        ok &= (ellipsoid_value(ell, x_next) + bench.cost.stage_cost(0, x, u)
               <= ellipsoid_value(ell, x) + 1e-9)
        ok &= ell.contains_rows(x_next[np.newaxis])[0]
        ok &= -4.5 <= u[0] <= 4.5
    elapsed = time.perf_counter() - t0
    report(8, "terminal cost decrease, invariance and admissible feedback",
           ok and elapsed < 1.0, f"1000 points, {elapsed:.2f}s")


def test_criterion_09_buck_boost_closed_loop():
    bench = make_benchmark("buck-boost", 10, None)
    x_eq, u_eq = bench.model.equilibrium
    eq_error = float(np.max(np.abs(bench.model.step(x_eq, u_eq) - x_eq)))
    cfg = SolverConfig(horizon=10, samples_per_step=10,
                       sampler=SamplerConfig(scheme="random", seed=11),
                       warm_start_mode="feasible-sample")
    t0 = time.perf_counter()
    log, clean = certified_closed_loop(bench, cfg, x_eq + np.array([1.0, 2.0]), 100)
    elapsed = time.perf_counter() - t0
    states, recs = log.states, log.records
    boxes_ok = (np.all(states[:, 0] >= -0.1) and np.all(states[:, 0] <= 22.5)
                and np.all(states[:, 1] >= 0.0) and np.all(states[:, 1] <= 3.0))
    inputs_ok = all(np.all(rec.applied_input >= 0.0) and np.all(rec.applied_input <= 1.0)
                    for rec in recs)
    dominated = all(rec.j_sub <= rec.j_warm for rec in recs)
    report(9, "buck-boost equilibrium and 100-step constrained closed loop",
           eq_error < 1e-9 and clean and boxes_ok and inputs_ok and dominated
           and elapsed < 10.0,
           f"eq error {eq_error:.1e}, elapsed {elapsed:.2f}s")


def test_criterion_10_wmr_obstacle_run():
    bench = make_benchmark("wmr", 5, None)
    cfg = SolverConfig(horizon=5, samples_per_step=30,
                       sampler=SamplerConfig(scheme="halton", seed=7),
                       warm_start_mode="feasible-sample")
    t0 = time.perf_counter()
    log, clean = certified_closed_loop(bench, cfg, np.array([0.0, 6.0, 0.0]), 400)
    elapsed = time.perf_counter() - t0
    states, recs = log.states, log.records
    clearance_sq = states[:, 0] ** 2 + (states[:, 1] - 3.0) ** 2
    outside = bool(np.all(clearance_sq >= 1.0))
    inputs_ok = all(abs(r.applied_input[0]) <= 0.47 and abs(r.applied_input[1]) <= 3.77
                    for r in recs)
    final_distance = float(np.hypot(states[-1, 0], states[-1, 1]))
    median_ms = statistics.median(r.elapsed for r in recs) * 1e3
    report(10, "wmr avoids the obstacle and parks near the goal",
           clean and outside and inputs_ok and final_distance < 0.5
           and median_ms < 100.0 and elapsed < 60.0,
           f"final distance {final_distance:.3f}, median step {median_ms:.1f}ms, "
           f"total {elapsed:.1f}s")


def test_criterion_11_anytime_contract():
    bench = make_benchmark("cart-spring", 10, None)
    x0 = np.array([-2.5, 3.0])
    cfg = SolverConfig(horizon=10, samples_per_step=10,
                       sampler=SamplerConfig(scheme="halton", seed=3),
                       time_budget=1e-9)
    t0 = time.perf_counter()
    warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
    warm_cost = evaluate_cost(bench.cost, rollout(bench.model, x0, warm), warm)
    result = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
    traj = rollout(bench.model, x0, result.plan)
    feasible = check_feasible(bench.constraints, traj, result.plan).feasible
    elapsed = time.perf_counter() - t0
    report(11, "interrupted solve still returns a feasible dominated plan",
           result.budget_hit and feasible and result.j_sub <= warm_cost and elapsed < 1.0,
           f"budget_hit={result.budget_hit}, elapsed {elapsed:.2f}s")
