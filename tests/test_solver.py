import dataclasses
import itertools
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sampled_nmpc import (
    Plan,
    SamplerConfig,
    SamplerState,
    SolverConfig,
    check_feasible,
    closed_loop,
    draw_samples,
    evaluate_cost,
    find_oracle,
    improve_plan,
    make_benchmark,
    make_warm_start,
    rollout,
)
from sampled_nmpc.errors import (
    ConfigError,
    ContractViolationError,
    InfeasibleWarmStartError,
    NoOracleError,
    NoTerminalLawError,
    WarmStartFailureError,
)
from sampled_nmpc import solver
from sampled_nmpc.bench import ExperimentConfig, _assemble
from sampled_nmpc.solver import SolveResult

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def warm_cost(bench, x0, plan):
    return evaluate_cost(bench.cost, rollout(bench.model, x0, plan), plan)


def brute_force_backward_sweep(bench, x0, warm, counts, sampler_cfg, tally=None):
    """Independent reference for the improvement operation: exhaustive
    single-position replacements evaluated with fresh rollouts, walking the
    horizon backwards, accepting the cheapest strictly-improving feasible
    candidate at each position (lowest sample index on ties).

    A ``tally`` dict, when given, accumulates the counters of a pruned sweep:
    a candidate at position j costs the steps up to its first violating state,
    and a feasible one all N - j steps plus one cost evaluation."""
    state = SamplerState(sampler_cfg)
    reference = warm
    best = warm_cost(bench, x0, reference)
    big_n = reference.horizon
    for j in range(big_n - 1, -1, -1):
        samples = draw_samples(state, bench.constraints.input_box, counts[j])
        chosen = None
        for sample in samples:
            inputs = reference.inputs.copy()
            inputs[j] = sample
            candidate = Plan(inputs)
            traj = rollout(bench.model, x0, candidate)
            report = check_feasible(bench.constraints, traj, candidate)
            if tally is not None:
                tally["f_evals"] += (big_n if report.feasible else report.violation_index) - j
                tally["cost_evals"] += int(report.feasible)
            if not report.feasible:
                continue
            value = evaluate_cost(bench.cost, traj, candidate)
            if value < best:
                best = value
                chosen = candidate
        if chosen is not None:
            reference = chosen
    return reference, best


# Start states from which short horizons (N <= 4) usually admit a feasible
# plan: near the cart's terminal set, near the converter's equilibrium, and
# around the robot's benchmark start above the obstacle.
START_WINDOWS = {
    "cart-spring": ([-0.8, -0.8], [0.8, 0.8]),
    "buck-boost": ([19.0, 0.2], [21.0, 0.8]),
    "wmr": ([-1.0, 5.0, -1.0], [1.0, 7.0, 1.0]),
}


def solve_from_random_start(plant, horizon, seed, counts, scheme, pruning):
    bench = make_benchmark(plant, horizon, None)
    lo, hi = START_WINDOWS[plant]
    x0 = np.random.default_rng(seed).uniform(lo, hi)
    cfg = SolverConfig(horizon=horizon, samples_per_step=counts, pruning=pruning,
                       sampler=SamplerConfig(scheme=scheme, seed=seed), oracle_budget=2048)
    try:
        warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
    except NoOracleError:
        assume(False)
    result = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
    return bench, x0, warm, cfg, result


# Start states in and near each plant's state set, infeasible ones included:
# the cart's position bound is 2.65, the converter's box is
# [-0.1, 22.5] x [0, 3], and the robot's obstacle is the unit disc about (0, 3).
NEAR_STATE_SETS = {
    "cart-spring": ([-2.9, -4.0], [2.9, 4.0]),
    "buck-boost": ([-0.5, -0.3], [23.0, 3.3]),
    "wmr": ([-2.0, 1.0, -np.pi], [2.0, 7.0, np.pi]),
}


def first_feasible_in_stream(bench, x0, cfg):
    """Independent reference for the oracle search: the whole budget drawn
    from a fresh oracle stream in one call, then a rollout and check_feasible
    of each sequence in stream order."""
    big_n = cfg.horizon
    flat = draw_samples(solver._oracle_stream(cfg), bench.constraints.input_box,
                        cfg.oracle_budget * big_n)
    if bench.constraints.state_ok(x0):  # else no sequence is feasible
        with np.errstate(over="ignore", invalid="ignore"):
            for inputs in flat.reshape(cfg.oracle_budget, big_n, bench.model.m):
                plan = Plan(inputs)
                if check_feasible(bench.constraints, rollout(bench.model, x0, plan), plan).feasible:
                    return plan
    raise NoOracleError("no feasible sequence in the budget")


def first_violation_by_rollout(bench, x0, inputs):
    """Independent reference for ``solver._step_rows`` on one row: its rollout
    and the index of its first state among 1..N that fails ``state_ok`` (the
    last one ``terminal_ok``), N + 1 when none does."""
    big_n = inputs.shape[0]
    checks = [bench.constraints.state_ok] * (big_n - 1) + [bench.constraints.terminal_ok]
    with np.errstate(over="ignore", invalid="ignore"):
        states = rollout(bench.model, x0, Plan(inputs))
        first = next((k for k, ok in enumerate(checks, 1) if not ok(states[k])), big_n + 1)
    return states, first


def counted_model(model):
    """A copy of model whose step and batch_step count their calls."""
    calls = {"step": 0, "batch_step": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    counted = dataclasses.replace(model, step=counting("step", model.step),
                                  batch_step=counting("batch_step", model.batch_step))
    calls.update(step=0, batch_step=0)  # construction checks the equilibrium once
    return counted, calls


def cart_solver_cfg(**kw):
    defaults = dict(horizon=10, samples_per_step=10,
                    sampler=SamplerConfig(scheme="halton", seed=3))
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestImprovePlan:
    def test_zero_samples_returns_warm_unchanged(self, cart10, cart_x0):
        cfg = cart_solver_cfg(samples_per_step=0)
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        result = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost, cfg)
        assert np.array_equal(result.plan.inputs, warm.inputs)
        assert result.j_sub == warm_cost(cart10, cart_x0, warm)
        assert result.f_evals == 0 and result.cost_evals == 0 and result.improvements == 0

    def test_never_worse_than_warm_start(self, cart10, cart_x0):
        cfg = cart_solver_cfg()
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        result = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost, cfg)
        before = warm_cost(cart10, cart_x0, warm)
        assert result.j_sub <= before
        if result.improvements > 0:
            assert result.j_sub < before

    def test_reported_cost_is_exactly_the_plan_cost(self, cart10, cart_x0):
        cfg = cart_solver_cfg()
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        result = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost, cfg)
        assert result.j_sub == warm_cost(cart10, cart_x0, result.plan)

    def test_returned_plan_passes_independent_feasibility_check(self, cart10, cart_x0):
        cfg = cart_solver_cfg()
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        result = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost, cfg)
        traj = rollout(cart10.model, cart_x0, result.plan)
        assert check_feasible(cart10.constraints, traj, result.plan).feasible

    def test_matches_brute_force_small_instance(self):
        # short horizons need a start near the terminal set to admit any plan
        bench = make_benchmark("cart-spring", 2, None)
        x0 = np.array([-0.6, 0.4])
        cfg = SolverConfig(horizon=2, samples_per_step=3,
                           sampler=SamplerConfig(scheme="grid"))
        warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
        result = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
        _, expected = brute_force_backward_sweep(bench, x0, warm, (3, 3), cfg.sampler)
        assert result.j_sub == expected

    def test_counter_exactness_without_pruning(self, cart10, cart_x0):
        cfg = cart_solver_cfg(pruning=False)
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        result = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost, cfg)
        assert result.f_evals == 550  # sum over positions of (N - j) * n_j
        assert result.cost_evals == 100

    def test_counters_term_for_term(self, cart10, cart_x0):
        warm_cfg = cart_solver_cfg()
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, warm_cfg)
        for j in (0, 4, 9):
            counts = [0] * 10
            counts[j] = 7
            cfg = cart_solver_cfg(samples_per_step=counts, pruning=False)
            result = improve_plan(cart_x0, warm, cart10.model, cart10.constraints,
                                  cart10.cost, cfg)
            assert result.f_evals == (10 - j) * 7
            assert result.cost_evals == 7

    def test_pruning_only_reduces_counters(self, cart10, cart_x0):
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg())
        off = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg(pruning=False))
        on = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(pruning=True))
        assert on.f_evals <= off.f_evals
        assert on.cost_evals <= off.cost_evals
        assert on.j_sub == off.j_sub  # pruning never changes the outcome

    def test_infeasible_warm_start_rejected(self, cart10):
        bad = Plan(np.full((10, 1), 4.4))
        with pytest.raises(InfeasibleWarmStartError):
            improve_plan(np.array([2.64, 3.0]), bad, cart10.model, cart10.constraints,
                         cart10.cost, cart_solver_cfg())

    def test_tiny_budget_still_returns_valid_result(self, cart10, cart_x0):
        cfg = cart_solver_cfg(time_budget=1e-9)
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        result = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost, cfg)
        assert result.budget_hit
        assert result.j_sub <= warm_cost(cart10, cart_x0, warm)
        traj = rollout(cart10.model, cart_x0, result.plan)
        assert check_feasible(cart10.constraints, traj, result.plan).feasible

    def test_position_cut_short_keeps_its_reference(self, cart10, cart_x0, monkeypatch):
        # A clock that ticks once per reading.  An unlimited run counts the
        # readings a whole solve takes; a budget of half of them expires in
        # the middle of the sweep, after some positions have been decided.
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg())
        full = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                            cart_solver_cfg(pruning=False))
        ticks = itertools.count()
        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                     cart_solver_cfg(time_budget=1e9, pruning=False))
        readings = next(ticks)
        ticks = itertools.count()
        cut = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg(time_budget=readings // 2, pruning=False))
        assert full.improvements >= 3
        assert cut.budget_hit
        assert 0 < cut.improvements < full.improvements
        # Positions decided before the cut hold the inputs the whole sweep
        # accepted there; every position below them keeps the warm input.
        split = [d for d in range(1, 10)
                 if np.array_equal(cut.plan.inputs[:d], warm.inputs[:d])
                 and np.array_equal(cut.plan.inputs[d:], full.plan.inputs[d:])]
        assert split
        assert not np.array_equal(cut.plan.inputs, full.plan.inputs)
        assert cut.j_sub == warm_cost(cart10, cart_x0, cut.plan) < warm_cost(cart10, cart_x0, warm)
        assert np.array_equal(cut.states, rollout(cart10.model, cart_x0, cut.plan))

    def test_budget_spent_on_draws_returns_the_warm_start(self, cart10, cart_x0, monkeypatch):
        # Readings: solve start, then one before each of the ten draws; a
        # 3.5-tick budget expires before the fourth draw.
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg())
        ticks = itertools.count()
        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        cut = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg(time_budget=3.5))
        assert cut.budget_hit
        assert np.array_equal(cut.plan.inputs, warm.inputs)
        assert (cut.f_evals, cut.cost_evals, cut.improvements) == (0, 0, 0)
        assert cut.j_sub == warm_cost(cart10, cart_x0, warm)

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 6), min_size=6, max_size=6),
           st.sampled_from(["grid", "random", "halton"]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_window_size_never_changes_the_result(self, plant, horizon, seed, counts, scheme,
                                                  pruning):
        counts = counts[:horizon]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_window_size", lambda decided, accepted: 1)
            bench, x0, warm, cfg, sequential = solve_from_random_start(
                plant, horizon, seed, counts, scheme, pruning)
            for k in (2, 3, horizon):
                mp.setattr(solver, "_window_size", lambda decided, accepted: k)
                result = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
                assert np.array_equal(result.plan.inputs, sequential.plan.inputs)
                assert np.array_equal(result.states, sequential.states)
                assert (result.j_sub, result.f_evals, result.cost_evals, result.improvements,
                        result.budget_hit) == (sequential.j_sub, sequential.f_evals,
                                               sequential.cost_evals, sequential.improvements,
                                               sequential.budget_hit)

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 6), min_size=6, max_size=6),
           st.sampled_from(["grid", "random", "halton"]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_row_steps_stay_within_the_work_bound(self, plant, horizon, seed, counts, scheme,
                                                  pruning):
        # The module docstring's bound: at most K_max * sum_j n_j (N - j_low)
        # row steps, K_max the largest window used and j_low the drawn
        # position K_max - 1 places after j in the sweep's order (or the
        # last one).  The copied model keeps the original one-row step, so
        # the entry rollout is not counted.
        counts = counts[:horizon]
        bench, x0, warm, cfg, _ = solve_from_random_start(plant, horizon, seed, counts,
                                                          scheme, pruning)
        rows, sizes = [], []
        counted = dataclasses.replace(
            bench.model, batch_step=lambda xs, us: rows.append(xs.shape[0])
            or bench.model.batch_step(xs, us))
        window_size = solver._window_size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_window_size",
                       lambda decided, accepted: sizes.append(window_size(decided, accepted))
                       or sizes[-1])
            result = improve_plan(x0, warm, counted, bench.constraints, bench.cost, cfg)
        drawn = [j for j in range(horizon - 1, -1, -1) if counts[j]]
        k_max = min(max(sizes, default=1), len(drawn))
        bound = k_max * sum(counts[j] * (horizon - drawn[min(i + k_max - 1, len(drawn) - 1)])
                            for i, j in enumerate(drawn))
        assert result.f_evals <= sum(rows) <= bound
        if all(counts):
            assert bound <= k_max * sum(n * (horizon - j + k_max - 1)
                                        for j, n in enumerate(counts))

    def test_window_size_follows_the_acceptance_rate(self):
        # About the positions decided per acceptance, smoothed: two positions
        # before anything is known, more while nothing is accepted.
        assert [solver._window_size(d, a) for d, a in ((0, 0), (2, 0), (8, 0), (4, 1),
                                                       (10, 5), (9, 9))] == [2, 4, 10, 3, 2, 2]

    def test_windows_make_fewer_batched_calls_than_the_sequential_sweep(self):
        # The sequential sweep at N = 50, ten samples everywhere, makes one
        # batched step per position and time index its rows reach: 1275
        # calls from this start, where no position's rows all fail.
        config = ExperimentConfig.load(CONFIG_DIR / "cart_horizon_050.json")
        bench, cfg, x0 = _assemble(config)
        warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
        calls = []
        counted = dataclasses.replace(
            bench.model, batch_step=lambda xs, us: calls.append(xs.shape[0])
            or bench.model.batch_step(xs, us))
        improve_plan(x0, warm, counted, bench.constraints, bench.cost, cfg)
        assert len(calls) < sum(50 - j for j in range(50))

    def test_lanes_do_not_change_the_result(self, cart10, cart_x0):
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg())
        results = [improve_plan(cart_x0, warm, cart10.model, cart10.constraints,
                                cart10.cost, cart_solver_cfg(lanes=lanes))
                   for lanes in (1, 2, 8)]
        for other in results[1:]:
            assert np.array_equal(results[0].plan.inputs, other.plan.inputs)
            assert results[0].j_sub == other.j_sub
            assert results[0].f_evals == other.f_evals
            assert results[0].cost_evals == other.cost_evals

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 6), min_size=4, max_size=4),
           st.sampled_from(["grid", "random", "halton"]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_sweep(self, plant, horizon, seed, counts, scheme, pruning):
        counts = counts[:horizon]
        bench, x0, warm, cfg, result = solve_from_random_start(
            plant, horizon, seed, counts, scheme, pruning)
        tally = {"f_evals": 0, "cost_evals": 0}
        expected_plan, expected = brute_force_backward_sweep(bench, x0, warm, counts,
                                                             cfg.sampler, tally)
        assert np.array_equal(result.plan.inputs, expected_plan.inputs)
        assert result.j_sub == expected
        assert result.j_sub == warm_cost(bench, x0, result.plan)
        assert np.array_equal(result.states, rollout(bench.model, x0, result.plan))
        if pruning:
            assert (result.f_evals, result.cost_evals) == (tally["f_evals"],
                                                           tally["cost_evals"])

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 6), min_size=4, max_size=4),
           st.sampled_from(["grid", "random", "halton"]))
    @settings(max_examples=40, deadline=None)
    def test_counters_match_closed_form_without_pruning(self, plant, horizon, seed, counts,
                                                        scheme):
        counts = counts[:horizon]
        *_, result = solve_from_random_start(plant, horizon, seed, counts, scheme, False)
        assert result.f_evals == sum((horizon - j) * n for j, n in enumerate(counts))
        assert result.cost_evals == sum(counts)

    def test_ties_keep_the_reference_then_the_lowest_sample_index(self):
        # From the origin with N = 1 the cart's cost is even in u, so the grid
        # samples -1.5 and +1.5 tie exactly (and tie the warm start +1.5).
        bench = make_benchmark("cart-spring", 1, None)
        cfg = SolverConfig(horizon=1, samples_per_step=4, sampler=SamplerConfig(scheme="grid"))
        for warm, expected in (([[2.0]], [[-1.5]]), ([[1.5]], [[1.5]])):
            result = improve_plan(np.zeros(2), Plan(warm), bench.model, bench.constraints,
                                  bench.cost, cfg)
            assert np.array_equal(result.plan.inputs, expected)
            assert result.improvements == (warm != expected)

    def test_cost_monotone_over_positions(self, cart10, cart_x0):
        # sweeping one position at a time can only lower the reference cost
        cfg = cart_solver_cfg()
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        costs = [warm_cost(cart10, cart_x0, warm)]
        reference = warm
        for j in range(9, -1, -1):
            counts = [0] * 10
            counts[j] = 10
            step_cfg = cart_solver_cfg(samples_per_step=counts,
                                       sampler=SamplerConfig(scheme="grid"))
            result = improve_plan(cart_x0, reference, cart10.model, cart10.constraints,
                                  cart10.cost, step_cfg)
            reference = result.plan
            costs.append(result.j_sub)
        assert all(b <= a for a, b in zip(costs, costs[1:]))


class TestStepRows:
    @given(st.sampled_from(sorted(NEAR_STATE_SETS)), st.integers(1, 30), st.integers(1, 8),
           st.integers(0, 2 ** 32 - 1), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.sampled_from([1.0, 10.0, 1e150, 1e300]))
    @settings(max_examples=80, deadline=None)
    @example("cart-spring", 30, 8, 1, [0.5, 0.5, 0.5], 1e300)
    @example("buck-boost", 30, 8, 1, [0.9, 0.9, 0.5], 1e300)
    def test_matches_a_rollout_per_row(self, plant, horizon, width, seed, where, scale):
        # Inputs from the input box scaled up to far outside it, so rows
        # leave the state set and overflow; every row steps to its end.
        bench = make_benchmark(plant, horizon, None)
        lo, hi = (np.array(v) for v in NEAR_STATE_SETS[plant])
        x0 = lo + np.array(where[:lo.size]) * (hi - lo)
        stream = SamplerState(SamplerConfig(scheme="random", seed=seed))
        us = scale * draw_samples(stream, bench.constraints.input_box, horizon * width)
        us = us.reshape(horizon, width, bench.model.m)
        xs = np.empty((horizon + 1, width, bench.model.n))
        xs[0] = x0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = solver._step_rows(xs, us, bench.model, bench.constraints, None)
        for b in range(width):
            states, expected = first_violation_by_rollout(bench, x0, us[:, b])
            assert first[b] == expected
            if expected > horizon:
                assert xs[:, b].tobytes() == states.tobytes()

    def test_rows_that_overflow_raise_no_warning(self, cart10):
        # A large negative force drives the cart's position to about -1e299;
        # the spring's exp(-x1) then overflows.
        us = np.full((10, 1, 1), -1e300)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            rollout(cart10.model, np.zeros(2), Plan(us[:, 0]))
        xs = np.zeros((11, 1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = solver._step_rows(xs, us, cart10.model, cart10.constraints, None)
        assert first.tolist() == [2]
        assert not np.isfinite(xs[-1]).all()

    def test_a_passed_deadline_stops_after_one_step(self, cart10):
        model, calls = counted_model(cart10.model)
        xs = np.zeros((11, 3, 2))
        assert solver._step_rows(xs, np.zeros((10, 3, 1)), model, cart10.constraints, 0.0) is None
        assert calls["batch_step"] == 1


class TestFindOracle:
    def test_equilibrium_start_yields_certified_plan(self, cart10):
        cfg = cart_solver_cfg()
        plan = find_oracle(np.zeros(2), cart10.model, cart10.constraints, cart10.cost, cfg)
        traj = rollout(cart10.model, np.zeros(2), plan)
        assert check_feasible(cart10.constraints, traj, plan).feasible

    def test_zero_budget_raises(self, cart10, cart_x0):
        cfg = cart_solver_cfg(oracle_budget=0)
        with pytest.raises(NoOracleError):
            find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)

    def test_exhausted_budget_raises(self, cart10):
        cfg = cart_solver_cfg(oracle_budget=3)
        # a state this close to the position bound with high velocity leaves
        # no feasible input sequence at all
        with pytest.raises(NoOracleError):
            find_oracle(np.array([2.64, 3.0]), cart10.model, cart10.constraints,
                        cart10.cost, cfg)

    def test_infeasible_initial_state_raises(self, cart10):
        cfg = cart_solver_cfg()
        with pytest.raises(NoOracleError):
            find_oracle(np.array([3.0, 0.0]), cart10.model, cart10.constraints,
                        cart10.cost, cfg)

    def test_deterministic_given_seed(self, cart10, cart_x0):
        cfg = cart_solver_cfg()
        a = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        b = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        assert np.array_equal(a.inputs, b.inputs)

    def test_independent_of_improvement_scheme(self, cart10, cart_x0):
        grid = cart_solver_cfg(sampler=SamplerConfig(scheme="grid", seed=3))
        halton = cart_solver_cfg(sampler=SamplerConfig(scheme="halton", seed=3))
        a = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, grid)
        b = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, halton)
        assert np.array_equal(a.inputs, b.inputs)

    @given(st.sampled_from(sorted(NEAR_STATE_SETS)), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.sampled_from([1, 2, 63, 64, 65, 1087, 1088, 1089]))
    @settings(max_examples=60, deadline=None)
    # From cart (-2.088, -1.36) at N = 5 about one sequence in 1350 is
    # feasible; these seeds put the first one at row 63, 64, 1087 and 1088.
    @example("cart-spring", 5, 2354, [0.14, 0.33, 0.0], 63)
    @example("cart-spring", 5, 2354, [0.14, 0.33, 0.0], 64)
    @example("cart-spring", 5, 970, [0.14, 0.33, 0.0], 64)
    @example("cart-spring", 5, 970, [0.14, 0.33, 0.0], 65)
    @example("cart-spring", 5, 2356, [0.14, 0.33, 0.0], 1088)
    @example("cart-spring", 5, 5467, [0.14, 0.33, 0.0], 1088)
    @example("cart-spring", 5, 5467, [0.14, 0.33, 0.0], 1089)
    def test_returns_the_first_feasible_sequence_of_its_stream(self, plant, horizon, seed,
                                                               where, budget):
        # The budgets straddle the edges of the batches: a 64-sequence probe,
        # then 1024-sequence batches.
        bench = make_benchmark(plant, horizon, None)
        lo, hi = (np.array(v) for v in NEAR_STATE_SETS[plant])
        x0 = lo + np.array(where[:lo.size]) * (hi - lo)
        cfg = SolverConfig(horizon=horizon, oracle_budget=budget,
                           sampler=SamplerConfig(scheme="random", seed=seed))
        try:
            expected = first_feasible_in_stream(bench, x0, cfg)
        except NoOracleError:
            with pytest.raises(NoOracleError):
                find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
            return
        plan = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
        assert plan.inputs.tobytes() == expected.inputs.tobytes()

    def test_an_easy_start_steps_only_the_probe(self, cart10):
        rows = []
        model = cart10.model
        spy = dataclasses.replace(
            model, batch_step=lambda xs, us: rows.append(xs.shape[0]) or model.batch_step(xs, us),
            step=None)
        rows.clear()  # construction checks the equilibrium once
        find_oracle(np.zeros(2), spy, cart10.constraints, cart10.cost, cart_solver_cfg())
        assert rows and max(rows) <= 64


class TestMakeWarmStart:
    def _solve(self, bench, x0, cfg):
        warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
        return improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)

    def test_terminal_controller_shift_structure(self, cart10, cart_x0):
        cfg = cart_solver_cfg()
        prev = self._solve(cart10, cart_x0, cfg)
        x_new = cart10.model.step(cart_x0, prev.plan.inputs[0])
        warm = make_warm_start(prev, x_new, cart10.model, cart10.constraints, cfg)
        assert np.array_equal(warm.inputs[:-1], prev.plan.inputs[1:])
        # the appended input is the terminal law at the previous end state
        prev_end = rollout(cart10.model, cart_x0, prev.plan)[-1]
        assert np.array_equal(warm.inputs[-1], cart10.model.terminal_law(prev_end))
        traj = rollout(cart10.model, x_new, warm)
        assert check_feasible(cart10.constraints, traj, warm).feasible

    def test_origin_appends_zero(self, cart10):
        cfg = cart_solver_cfg(samples_per_step=0)
        prev = SolveResult(plan=Plan(np.zeros((10, 1))), states=np.zeros((11, 2)), j_sub=0.0,
                           f_evals=0, cost_evals=0, improvements=0, elapsed=0.0,
                           budget_hit=False)
        warm = make_warm_start(prev, np.zeros(2), cart10.model, cart10.constraints, cfg)
        assert np.array_equal(warm.inputs, np.zeros((10, 1)))

    def test_feasible_sample_mode_keeps_states_admissible(self, wmr5):
        x0 = np.array([0.0, 6.0, 0.0])
        cfg = SolverConfig(horizon=5, samples_per_step=30,
                           sampler=SamplerConfig(scheme="halton", seed=1),
                           warm_start_mode="feasible-sample")
        prev = self._solve(wmr5, x0, cfg)
        x_new = wmr5.model.step(x0, prev.plan.inputs[0])
        warm = make_warm_start(prev, x_new, wmr5.model, wmr5.constraints, cfg)
        traj = rollout(wmr5.model, x_new, warm)
        assert check_feasible(wmr5.constraints, traj, warm).feasible

    def test_terminal_controller_unavailable_for_wmr(self, wmr5):
        cfg = SolverConfig(horizon=5, samples_per_step=5,
                           sampler=SamplerConfig(scheme="halton", seed=1),
                           warm_start_mode="terminal-controller")
        prev = SolveResult(plan=Plan(np.zeros((5, 2))), states=np.zeros((6, 3)), j_sub=0.0,
                           f_evals=0, cost_evals=0, improvements=0, elapsed=0.0,
                           budget_hit=False)
        with pytest.raises(NoTerminalLawError):
            make_warm_start(prev, np.zeros(3), wmr5.model, wmr5.constraints, cfg)

    def test_unrepairable_shift_raises(self):
        # previous plan parks the robot against the obstacle disc with its
        # certified prefix, then the shift exposes an inadmissible state
        wmr2 = make_benchmark("wmr", 2, None)
        cfg = SolverConfig(horizon=2, samples_per_step=5,
                           sampler=SamplerConfig(scheme="halton", seed=1),
                           warm_start_mode="feasible-sample", oracle_budget=64)
        inputs = np.array([[0.47, 0.0], [0.47, 0.0]])
        # from (0, 4.05, -pi/2) driving straight down 0.047 per step: the first
        # two states are outside the disc, the third is inside
        x0 = np.array([0.0, 4.05, -np.pi / 2])
        prev = SolveResult(plan=Plan(inputs), states=rollout(wmr2.model, x0, Plan(inputs)),
                           j_sub=0.0, f_evals=0, cost_evals=0, improvements=0, elapsed=0.0,
                           budget_hit=False)
        x_new = wmr2.model.step(x0, inputs[0])
        warm = make_warm_start(prev, x_new, wmr2.model, wmr2.constraints, cfg)
        assert np.array_equal(warm.inputs[0], inputs[1])
        with pytest.raises(InfeasibleWarmStartError, match="obstacle at index 1"):
            improve_plan(x_new, warm, wmr2.model, wmr2.constraints, wmr2.cost, cfg)

    def test_terminal_controller_steps_only_the_appended_state(self, cart10, cart_x0):
        # The shift carries prev's states and steps the terminal law's input
        # once; the next solve certifies that trajectory without stepping.
        cfg = cart_solver_cfg()
        model, calls = counted_model(cart10.model)
        prev = self._solve(dataclasses.replace(cart10, model=model), cart_x0, cfg)
        x_new = cart10.model.step(cart_x0, prev.plan.inputs[0])
        calls.update(step=0, batch_step=0)
        warm = make_warm_start(prev, x_new, model, cart10.constraints, cfg)
        assert calls == {"step": 0, "batch_step": 1}
        improve_plan(x_new, warm, model, cart10.constraints, cart10.cost,
                     cart_solver_cfg(samples_per_step=0))
        assert calls == {"step": 0, "batch_step": 1}

    def test_feasible_sample_steps_one_batch_per_search_batch(self, cart10, cart_x0):
        cfg = cart_solver_cfg(warm_start_mode="feasible-sample", oracle_budget=600)
        prev = self._solve(cart10, cart_x0, cfg)
        x_new = cart10.model.step(cart_x0, prev.plan.inputs[0])
        model, calls = counted_model(cart10.model)
        make_warm_start(prev, x_new, model, cart10.constraints, cfg)
        assert calls == {"step": 0, "batch_step": 1}
        # An end state far outside the terminal set exhausts the search: 600
        # samples are drawn in batches of 256, 256 and 88.
        far = dataclasses.replace(prev, states=np.vstack([prev.states[:-1], [[2.6, 3.0]]]))
        with pytest.raises(WarmStartFailureError):
            make_warm_start(far, x_new, model, cart10.constraints, cfg)
        assert calls == {"step": 0, "batch_step": 4}

    def test_measured_state_off_the_prediction(self, cart10, cart_x0):
        # The appended input is taken at the predicted end state whatever the
        # measured state; improve_plan certifies the shift from that state.
        cfg = cart_solver_cfg()
        prev = self._solve(cart10, cart_x0, cfg)
        x_new = np.array([2.0, 2.0])
        assert not np.array_equal(x_new, prev.states[1])
        warm = make_warm_start(prev, x_new, cart10.model, cart10.constraints, cfg)
        assert np.array_equal(warm.inputs[:-1], prev.plan.inputs[1:])
        assert np.array_equal(warm.inputs[-1], cart10.model.terminal_law(prev.states[-1]))
        report = check_feasible(cart10.constraints, rollout(cart10.model, x_new, warm), warm)
        assert (report.violation_kind, report.violation_index) == ("state-box", 1)
        with pytest.raises(InfeasibleWarmStartError, match="state-box at index 1"):
            improve_plan(x_new, warm, cart10.model, cart10.constraints, cart10.cost, cfg)


def passes_a_fresh_certificate(bench, x, plan):
    return check_feasible(bench.constraints, rollout(bench.model, x, plan), plan).feasible


class TestCertificates:
    """Oracle plans are certified where they are built and warm starts by
    improve_plan's entry check; a fresh rollout and check_feasible of every
    plan must agree."""

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["terminal-controller", "feasible-sample"]))
    @settings(max_examples=60, deadline=None)
    def test_oracle_and_warm_start_plans_are_feasible(self, plant, horizon, seed, mode):
        bench = make_benchmark(plant, horizon, None)
        model = bench.model
        assume(mode == "feasible-sample" or model.terminal_law is not None)
        lo, hi = START_WINDOWS[plant]
        x = np.random.default_rng(seed).uniform(lo, hi)
        cfg = SolverConfig(horizon=horizon, samples_per_step=3, oracle_budget=2048,
                           sampler=SamplerConfig(scheme="random", seed=seed),
                           warm_start_mode=mode)
        try:
            plan = find_oracle(x, model, bench.constraints, bench.cost, cfg)
        except NoOracleError:
            assume(False)
        assert passes_a_fresh_certificate(bench, x, plan)
        sampler_state = SamplerState(cfg.sampler)
        for _ in range(4):
            prev = improve_plan(x, plan, model, bench.constraints, bench.cost, cfg,
                                sampler_state)
            x = model.step(x, prev.plan.inputs[0])
            try:
                plan = make_warm_start(prev, x, model, bench.constraints, cfg, sampler_state)
            except WarmStartFailureError:
                break
            assert np.array_equal(plan.inputs[:-1], prev.plan.inputs[1:])
            if not passes_a_fresh_certificate(bench, x, plan):
                with pytest.raises(InfeasibleWarmStartError):
                    improve_plan(x, plan, model, bench.constraints, bench.cost, cfg,
                                 sampler_state)
                break

    def test_failed_terminal_law_append_raises(self):
        # Near (2, 0) one step of the terminal law cannot reach the cart's
        # terminal set, so the shifted one-step plan fails its certificate.
        bench = make_benchmark("cart-spring", 1, None)
        cfg = SolverConfig(horizon=1, samples_per_step=0)
        states = rollout(bench.model, np.array([2.0, 0.0]), Plan([[0.0]]))
        prev = SolveResult(plan=Plan([[0.0]]), states=states, j_sub=0.0, f_evals=0,
                           cost_evals=0, improvements=0, elapsed=0.0, budget_hit=False)
        x = states[-1]
        warm = make_warm_start(prev, x, bench.model, bench.constraints, cfg)
        assert np.array_equal(warm.inputs[0], bench.model.terminal_law(x))
        assert not passes_a_fresh_certificate(bench, x, warm)
        with pytest.raises(InfeasibleWarmStartError, match="terminal at index 1"):
            improve_plan(x, warm, bench.model, bench.constraints, bench.cost, cfg)


def bits(states):
    return np.ascontiguousarray(states).view(np.uint64)


class TestCarriedTrajectories:
    """Oracle plans, solves and shifts carry the trajectory their model
    stepped, and improve_plan certifies it without re-stepping; it must equal
    a fresh rollout bit for bit, and a plan that carries none, or one for
    another model or start, is rolled out."""

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(["grid", "random", "halton"]),
           st.sampled_from(["terminal-controller", "feasible-sample"]))
    @settings(max_examples=60, deadline=None)
    def test_carried_states_equal_the_rollout(self, plant, horizon, seed, scheme, mode):
        bench = make_benchmark(plant, horizon, None)
        model = bench.model
        assume(mode == "feasible-sample" or model.terminal_law is not None)
        lo, hi = START_WINDOWS[plant]
        x0 = np.random.default_rng(seed).uniform(lo, hi)
        cfg = SolverConfig(horizon=horizon, samples_per_step=3, oracle_budget=2048,
                           sampler=SamplerConfig(scheme=scheme, seed=seed),
                           warm_start_mode=mode)
        try:
            oracle = find_oracle(x0, model, bench.constraints, bench.cost, cfg)
        except NoOracleError:
            assume(False)
        assert np.array_equal(bits(oracle.states), bits(rollout(model, x0, oracle)))
        warm_starts = []
        improve = solver.improve_plan

        def recording(x, warm, *args):
            warm_starts.append((x.copy(), warm))
            return improve(x, warm, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "improve_plan", recording)
            try:
                closed_loop(model, bench.constraints, bench.cost, cfg, x0, 4)
            except (WarmStartFailureError, InfeasibleWarmStartError):
                pass  # the warm starts made so far are still checked
        for x, warm in warm_starts:
            assert np.array_equal(bits(warm.states), bits(rollout(model, x, warm)))

    @pytest.mark.parametrize("mode", solver.WARM_START_MODES)
    def test_closed_loop_steps_only_the_plant(self, cart10, cart_x0, mode):
        # One one-row step per period, the plant's advance: no warm start is
        # rolled out again.
        model, calls = counted_model(cart10.model)
        closed_loop(model, cart10.constraints, cart10.cost,
                    cart_solver_cfg(warm_start_mode=mode), cart_x0, 6)
        assert calls["step"] == 6

    def test_plans_without_a_trajectory_for_the_solve_are_rolled_out(self, cart10, cart_x0):
        cfg = cart_solver_cfg(samples_per_step=0)
        args = (cart10.constraints, cart10.cost, cfg)
        model, calls = counted_model(cart10.model)
        oracle = find_oracle(cart_x0, model, cart10.constraints, cart10.cost, cfg)
        prev = improve_plan(cart_x0, oracle, model, cart10.constraints, cart10.cost,
                            cart_solver_cfg())
        x_new = prev.states[1]
        shift = make_warm_start(prev, x_new, model, cart10.constraints, cfg)
        other, other_calls = counted_model(cart10.model)
        calls.update(step=0, batch_step=0)
        improve_plan(cart_x0, oracle, model, *args)
        improve_plan(x_new, shift, model, *args)
        assert calls["step"] == 0
        improve_plan(cart_x0, Plan(oracle.inputs), model, *args)  # a caller's plan
        assert calls["step"] == 10
        improve_plan(np.nextafter(x_new, np.inf), shift, model, *args)  # off the prediction
        assert calls["step"] == 20
        improve_plan(x_new, shift, other, *args)  # another model object
        assert other_calls["step"] == 10
        # A SolveResult whose states its plan was not stepped along.
        forged = dataclasses.replace(prev, states=prev.states.copy())
        improve_plan(x_new, make_warm_start(forged, x_new, model, cart10.constraints, cfg),
                     model, *args)
        assert calls["step"] == 30
        # -0.0 equals 0.0 but is another start, bit for bit.
        at_zero = find_oracle(np.zeros(2), model, cart10.constraints, cart10.cost, cfg)
        improve_plan(np.array([-0.0, 0.0]), at_zero, model, *args)
        assert calls["step"] == 40


class TestClosedLoop:
    def test_zero_steps_logs_initial_state_only(self, cart10, cart_x0):
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(), cart_x0, 0)
        assert log.records == ()
        assert np.array_equal(log.states, cart_x0[np.newaxis, :])
        assert log.termination == "completed"

    @pytest.mark.parametrize("steps", [1.5, 2.0, True, "2", -1])
    def test_steps_must_be_a_nonnegative_integer(self, cart10, cart_x0, steps):
        with pytest.raises(ContractViolationError, match="steps"):
            closed_loop(cart10.model, cart10.constraints, cart10.cost,
                        cart_solver_cfg(), cart_x0, steps)

    def test_numpy_integer_steps(self, cart10, cart_x0):
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(), cart_x0, np.int64(2))
        assert len(log.records) == 2 and log.states.shape == (3, 2)

    def test_cart_constraints_hold_throughout(self, cart10, cart_x0):
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(), cart_x0, 20)
        assert len(log.records) == 20
        assert np.all(np.abs(log.states[:, 0]) <= 2.65)
        assert all(abs(r.applied_input[0]) <= 4.5 for r in log.records)

    def test_states_chain_under_the_plant_map(self, cart10, cart_x0):
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(), cart_x0, 10)
        for rec, nxt in zip(log.records, log.states[1:]):
            assert np.array_equal(cart10.model.step(rec.state, rec.applied_input), nxt)

    def test_js_sequence_available_for_plots(self, cart10, cart_x0):
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(), cart_x0, 8)
        js = [rec.j_sub for rec in log.records]
        assert len(js) == 8 and all(v >= 0 for v in js)

    def test_lane_count_does_not_change_the_log(self, cart10, cart_x0):
        logs = [closed_loop(cart10.model, cart10.constraints, cart10.cost,
                            cart_solver_cfg(lanes=lanes), cart_x0, 12)
                for lanes in (1, 2, 8)]
        for other in logs[1:]:
            assert np.array_equal(logs[0].states, other.states)
            for a, b in zip(logs[0].records, other.records):
                assert a.j_sub == b.j_sub
                assert a.f_evals == b.f_evals
                assert np.array_equal(a.applied_input, b.applied_input)

    def test_no_intervention_run_propagates_oracle(self, cart10, cart_x0):
        cfg = cart_solver_cfg(samples_per_step=0)
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost, cfg, cart_x0, 6)
        assert all(r.f_evals == 0 and r.cost_evals == 0 and r.improvements == 0
                   for r in log.records)
        oracle = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        # the applied inputs replay the oracle plan head as it shifts through
        applied = np.array([r.applied_input for r in log.records])
        assert np.array_equal(applied, oracle.inputs[:6])

    def test_provided_initial_plan(self, cart10):
        x0 = np.zeros(2)
        cfg = cart_solver_cfg(initial_plan=Plan(np.zeros((10, 1))), samples_per_step=0)
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost, cfg, x0, 3)
        assert np.array_equal(log.states, np.zeros((4, 2)))

    @pytest.mark.parametrize("mode", solver.WARM_START_MODES)
    def test_initial_plan_replaces_the_oracle_in_every_mode(self, cart10, mode):
        x0 = np.zeros(2)
        given_plan = Plan(np.zeros((10, 1)))
        cfg = cart_solver_cfg(warm_start_mode=mode, initial_plan=given_plan,
                              improve_initial=False)
        oracle = find_oracle(x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        assert oracle.inputs[0, 0] != 0.0  # the oracle alone would apply another input
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost, cfg, x0, 2)
        first = log.records[0]
        assert np.array_equal(first.applied_input, given_plan.inputs[0])
        assert first.j_sub == warm_cost(cart10, x0, given_plan)

    def test_provided_mode_is_rejected(self):
        with pytest.raises(ConfigError):
            cart_solver_cfg(warm_start_mode="provided")

    def test_improve_initial_off_keeps_oracle_cost(self, cart10, cart_x0):
        cfg = cart_solver_cfg(improve_initial=False)
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost, cfg, cart_x0, 1)
        oracle = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost, cfg)
        assert log.records[0].j_sub == warm_cost(cart10, cart_x0, oracle)
        assert log.records[0].f_evals == 0

    def test_improve_initial_off_never_reports_budget_hit(self, cart10, cart_x0):
        # the first period runs a sweep with no samples, which never polls
        # the deadline, so an expired budget is reported only from period 1
        cfg = cart_solver_cfg(improve_initial=False, time_budget=1e-12)
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost, cfg, cart_x0, 2)
        first, second = log.records
        assert not first.budget_hit and first.improvements == 0
        assert second.budget_hit


class TestSolverConfigValidation:
    def test_sample_counts_broadcast(self):
        cfg = SolverConfig(horizon=4, samples_per_step=3)
        assert cfg.sample_counts == (3, 3, 3, 3)

    def test_sample_count_length_checked(self):
        with pytest.raises(ConfigError):
            SolverConfig(horizon=3, samples_per_step=[1, 2])

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SolverConfig(horizon=0)
        with pytest.raises(ConfigError):
            SolverConfig(horizon=2, lanes=0)
        with pytest.raises(ConfigError):
            SolverConfig(horizon=2, samples_per_step=[-1, 2])
        with pytest.raises(ConfigError):
            SolverConfig(horizon=2, warm_start_mode="optimal")
        with pytest.raises(ConfigError):
            SolverConfig(horizon=2, time_budget=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(horizon=2, time_budget=float("nan"))

    @pytest.mark.parametrize("field, value", [
        ("samples_per_step", 1.7), ("samples_per_step", "12"), ("samples_per_step", True),
        ("samples_per_step", [1.5, 2, 3]), ("horizon", 3.0), ("horizon", "3"),
        ("lanes", True), ("lanes", 2.5), ("oracle_budget", "100"), ("oracle_budget", 1e3),
        ("samples_per_step", None), ("samples_per_step", np.array(5))])
    def test_rejects_non_integers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverConfig(**{"horizon": 3, field: value})

    @pytest.mark.parametrize("field, value", [
        ("pruning", "no"), ("pruning", 0), ("improve_initial", 0), ("improve_initial", None),
        ("time_budget", True), ("time_budget", "5"), ("time_budget", [1.0]),
        ("initial_plan", [[0.0], [0.0], [0.0]]), ("initial_plan", np.zeros((3, 1)))])
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolverConfig(**{"horizon": 3, field: value})

    def test_accepts_numeric_budgets_and_a_plan(self):
        for budget in (2, 0.5, np.float32(0.25), np.int64(1), float("inf")):
            assert SolverConfig(horizon=3, time_budget=budget).time_budget == budget
        plan = Plan(np.zeros((3, 1)))
        assert SolverConfig(horizon=3, initial_plan=plan).initial_plan is plan

    def test_accepts_numpy_integers(self):
        cfg = SolverConfig(horizon=np.int32(3), samples_per_step=np.array([1, 2, 3]),
                           lanes=np.int64(2), oracle_budget=np.uint16(10))
        assert cfg.sample_counts == (1, 2, 3)
        assert all(type(c) is int for c in cfg.sample_counts)
        assert SolverConfig(horizon=2, samples_per_step=np.int8(4)).sample_counts == (4, 4)
