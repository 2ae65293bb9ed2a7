import bisect
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
    CostSpec,
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
from sampled_nmpc.sampling import draw_blocks
from sampled_nmpc.solver import SolveResult

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def warm_cost(bench, x0, plan):
    return evaluate_cost(bench.cost, rollout(bench.model, x0, plan), plan)


def brute_force_backward_sweep(bench, x0, warm, counts, sampler_cfg, tally=None):
    """Independent reference for the improvement operation: exhaustive
    single-position replacements evaluated with fresh rollouts, walking the
    horizon backwards, accepting the cheapest strictly-improving feasible
    candidate at each position (lowest sample index on ties).

    A ``tally`` dict, when given, accumulates the sweep's counters: a
    candidate at position j costs the steps up to its first violating state,
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


def two_branch_round_width(block, start, lo, big_n):
    """Reference for ``solver._round_width``: the width rule as it was, a
    bisect of the rows when the starts from lo on are equal, else a scan."""
    if start[lo] == start[-1]:  # one start from lo on: bisect the rows
        fit = bisect.bisect_right(block,
                                  block[lo] + solver._ROUND_ROW_STEPS // (big_n - start[lo])) - 1
        return max(fit, lo + 1)
    hi = lo + 1
    while (hi < len(start) and (block[hi + 1] - block[lo]) * (big_n - start[hi])
           <= solver._ROUND_ROW_STEPS):
        hi += 1
    return hi


def solve_from_random_start(plant, horizon, seed, counts, scheme, overrides=None):
    bench = make_benchmark(plant, horizon, overrides)
    lo, hi = START_WINDOWS[plant]
    x0 = np.random.default_rng(seed).uniform(lo, hi)
    cfg = SolverConfig(horizon=horizon, samples_per_step=counts,
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


def first_feasible_append(bench, end, stream, budget):
    """Independent reference for the feasible-sample append: the whole budget
    drawn in one call, in the append's batches of 256 (a grid restarts at
    each), then one ``model.step`` of each sample from ``end`` in stream
    order.  Returns the first input whose step passes the terminal set, or
    None, and the samples drawn through that input's batch."""
    sizes = [256] * (budget // 256) + [budget % 256] * (budget % 256 > 0)
    samples = draw_blocks(stream, bench.constraints.input_box, sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        hits = (i for i, u in enumerate(samples)
                if bench.constraints.terminal_ok(bench.model.step(end, u)))
        first = next(hits, None)
    if first is None:
        return None, budget
    return samples[first], min(budget, 256 * (first // 256 + 1))


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


def solve_on_a_ticking_clock(bench, x0, monkeypatch, budget, cfg=None):
    """A solve of the oracle's plan on a clock that ticks once per reading,
    cut by a budget of ``budget`` ticks.  Wherever it is cut, its plan must
    pass a fresh certificate, its cost be at most the warm start's and a
    fresh evaluation's bits, and its states be the plan's rollout bit for
    bit.  Returns the result, the warm start, the stream and the readings
    the solve took."""
    cfg = cart_solver_cfg() if cfg is None else cfg
    warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
    ticks = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    stream = SamplerState(cfg.sampler)
    cut = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost,
                       dataclasses.replace(cfg, time_budget=budget), stream)
    readings = next(ticks)
    states = rollout(bench.model, x0, cut.plan)
    assert check_feasible(bench.constraints, states, cut.plan).feasible
    assert cut.j_sub <= warm_cost(bench, x0, warm)
    assert cut.j_sub == evaluate_cost(bench.cost, states, cut.plan)
    assert np.array_equal(bits(cut.states), bits(states))
    return cut, warm, stream, readings


def returns_the_warm_start(bench, x0, cut, warm):
    return (cut.budget_hit and np.array_equal(cut.plan.inputs, warm.inputs)
            and (cut.f_evals, cut.cost_evals, cut.improvements) == (0, 0, 0)
            and cut.j_sub == warm_cost(bench, x0, warm))


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

    def test_counter_exactness(self, free_wmr10):
        bench, x0, cfg = free_wmr10, free_wmr10.default_x0, cart_solver_cfg()
        warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
        result = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
        assert result.f_evals == 550  # sum over positions of (N - j) * n_j
        assert result.cost_evals == 100

    def test_counters_term_for_term(self, free_wmr10):
        bench, x0 = free_wmr10, free_wmr10.default_x0
        warm = find_oracle(x0, bench.model, bench.constraints, bench.cost, cart_solver_cfg())
        for j in (0, 4, 9):
            counts = [0] * 10
            counts[j] = 7
            cfg = cart_solver_cfg(samples_per_step=counts)
            result = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
            assert result.f_evals == (10 - j) * 7
            assert result.cost_evals == 7

    def test_infeasible_warm_start_rejected(self, cart10):
        bad = Plan(np.full((10, 1), 4.4))
        with pytest.raises(InfeasibleWarmStartError):
            improve_plan(np.array([2.64, 3.0]), bad, cart10.model, cart10.constraints,
                         cart10.cost, cart_solver_cfg())

    @pytest.mark.parametrize("plant, overrides", [("cart-spring", None),
                                                  ("wmr", {"obstacle": None, "ts": 1e308})])
    def test_a_warm_start_whose_cost_is_not_finite_is_refused(self, plant, overrides):
        # The cart's states are finite but a stage weight of 1e308 overflows
        # their cost; the robot at ts = 1e308 steps to states near the float
        # limit, which it admits, and overflows the cost of its own weights.
        bench = make_benchmark(plant, 5, overrides)
        cost = bench.cost
        if overrides is None:
            cost = CostSpec.constant(1e308 * np.eye(2), np.eye(1), np.eye(2), 5)
        x0, cfg = bench.default_x0, SolverConfig(horizon=5, samples_per_step=3)
        with np.errstate(over="ignore", invalid="ignore"):
            warm = find_oracle(x0, bench.model, bench.constraints, cost, cfg)
        with pytest.raises(ContractViolationError,
                           match="^warm start cost is not finite: (inf|nan)$"):
            improve_plan(x0, warm, bench.model, bench.constraints, cost, cfg)

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
                            cart_solver_cfg())
        ticks = itertools.count()
        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                     cart_solver_cfg(time_budget=1e9))
        readings = next(ticks)
        ticks = itertools.count()
        cut = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg(time_budget=readings // 2))
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
        # Readings: solve start, then the one poll before the draw; a
        # 0.5-tick budget expires there, so nothing is drawn.
        cut, warm, stream, _ = solve_on_a_ticking_clock(cart10, cart_x0, monkeypatch, 0.5)
        assert returns_the_warm_start(cart10, cart_x0, cut, warm)
        assert stream.counter == 0

    def test_budget_spent_in_the_first_pass_returns_the_warm_start(self, cart10, cart_x0,
                                                                   monkeypatch):
        # After the draw, one reading per batched step of the first round; a
        # 3.5-tick budget expires after its second step, before any decision.
        cut, warm, stream, _ = solve_on_a_ticking_clock(cart10, cart_x0, monkeypatch, 3.5)
        assert returns_the_warm_start(cart10, cart_x0, cut, warm)
        assert stream.counter == 100

    @pytest.mark.parametrize("plant, horizon", [("cart-spring", 10), ("buck-boost", 10),
                                                ("wmr", 5)])
    @pytest.mark.parametrize("scheme", ["grid", "random", "halton"])
    def test_a_cut_at_any_reading_returns_a_certified_plan(self, plant, horizon, scheme,
                                                          monkeypatch):
        # Readings: solve start, the poll before the draw, one poll per
        # batched step, then the elapsed time.  A budget of k - 0.5 ticks
        # cuts the solve at reading k, before any decision, between two
        # rounds or inside one, up to the uncut solve.
        bench = make_benchmark(plant, horizon, None)
        x0 = bench.default_x0
        cfg = cart_solver_cfg(horizon=horizon, sampler=SamplerConfig(scheme=scheme, seed=3))
        full, _, _, readings = solve_on_a_ticking_clock(bench, x0, monkeypatch, 1e9, cfg)
        assert full.improvements >= 2
        improvements = set()
        for k in range(1, readings):
            cut = solve_on_a_ticking_clock(bench, x0, monkeypatch, k - 0.5, cfg)[0]
            assert cut.budget_hit == (k < readings - 1)
            improvements.add(cut.improvements)
        assert improvements == set(range(full.improvements + 1))

    @given(st.sampled_from([("cart-spring", 10), ("buck-boost", 10), ("wmr", 5)]),
           st.sampled_from(["grid", "random", "halton"]), st.integers(0, 2 ** 32 - 1),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_cut_from_a_random_start_returns_a_certified_plan(self, plant_horizon, scheme,
                                                                seed, data):
        # As above, from a random start and seed, cut at one drawn reading.
        plant, horizon = plant_horizon
        bench = make_benchmark(plant, horizon, None)
        lo, hi = START_WINDOWS[plant]
        x0 = np.random.default_rng(seed).uniform(lo, hi)
        cfg = cart_solver_cfg(horizon=horizon, sampler=SamplerConfig(scheme=scheme, seed=seed),
                              oracle_budget=2048)
        with pytest.MonkeyPatch.context() as mp:
            try:
                readings = solve_on_a_ticking_clock(bench, x0, mp, 1e9, cfg)[3]
            except NoOracleError:
                assume(False)
            k = data.draw(st.integers(1, readings - 1), label="cut reading")
            cut = solve_on_a_ticking_clock(bench, x0, mp, k - 0.5, cfg)[0]
        assert cut.budget_hit == (k < readings - 1)

    def test_a_draw_outside_the_input_box_is_refused(self, cart10, cart_x0, monkeypatch):
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg())
        monkeypatch.setattr(solver, "draw_blocks",
                            lambda state, box, sizes: np.full((sum(sizes), 1), 5.0))
        with pytest.raises(ContractViolationError,
                           match="^draw_blocks returned an input outside the input box$"):
            improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                         cart_solver_cfg())

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 6), min_size=6, max_size=6),
           st.sampled_from(["grid", "random", "halton"]), st.integers(1, 250))
    @settings(max_examples=60, deadline=None)
    @example("cart-spring", 6, 1, [6] * 6, "halton", 50)  # both kinds of partial width
    def test_round_width_never_changes_the_result(self, plant, horizon, seed, counts, scheme,
                                                   mid_steps):
        # A row-step budget of 1 prices and resumes one position at a time, a
        # huge one every position; one in between folds groups of several
        # positions in the first round and resumes several in a later one.
        # Each equals the sequential sweep.
        counts = counts[:horizon]
        bench, x0, warm, cfg, result = solve_from_random_start(
            plant, horizon, seed, counts, scheme)
        tally = {"f_evals": 0, "cost_evals": 0}
        expected_plan, expected = brute_force_backward_sweep(bench, x0, warm, counts,
                                                             cfg.sampler, tally)
        assert np.array_equal(result.plan.inputs, expected_plan.inputs)
        assert result.j_sub == expected
        assert (result.f_evals, result.cost_evals) == (tally["f_evals"], tally["cost_evals"])
        with pytest.MonkeyPatch.context() as mp:
            for row_steps in (1, mid_steps, 10 ** 9):
                mp.setattr(solver, "_ROUND_ROW_STEPS", row_steps)
                other = improve_plan(x0, warm, bench.model, bench.constraints, bench.cost, cfg)
                assert np.array_equal(other.plan.inputs, result.plan.inputs)
                assert np.array_equal(other.states, result.states)
                assert (other.j_sub, other.f_evals, other.cost_evals, other.improvements,
                        other.budget_hit) == (result.j_sub, result.f_evals, result.cost_evals,
                                              result.improvements, result.budget_hit)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_width_is_the_two_branch_rule(self, data):
        # From lo on the starts are the positions, descending (first round),
        # or all equal (after an acceptance); the one bisect takes the hi the
        # row bisect and the scan took, for every lo and row-step budget.
        big_n = data.draw(st.integers(1, 100))
        positions = sorted(data.draw(st.lists(st.integers(0, big_n - 1), min_size=1,
                                              max_size=big_n, unique=True)), reverse=True)
        sizes = data.draw(st.lists(st.integers(1, 600), min_size=len(positions),
                                   max_size=len(positions)))
        block = [0, *itertools.accumulate(sizes)]
        resumed = data.draw(st.integers(0, big_n - 1))
        with pytest.MonkeyPatch.context() as mp:
            for row_steps in (1, 7, 4096, 10 ** 9):
                mp.setattr(solver, "_ROUND_ROW_STEPS", row_steps)
                for lo in range(len(positions)):
                    for start in (positions, positions[:lo] + [resumed] * (len(positions) - lo)):
                        assert (solver._round_width(block, start, lo, big_n)
                                == two_branch_round_width(block, start, lo, big_n))

    @given(st.sampled_from(["cart-spring", "buck-boost", "wmr"]), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 6), min_size=6, max_size=6),
           st.sampled_from(["grid", "random", "halton"]),
           st.sampled_from([1, None, 10 ** 9]) | st.integers(1, 250))
    @settings(max_examples=60, deadline=None)
    @example("cart-spring", 6, 1, [6] * 6, "halton", 50)
    def test_row_steps_stay_within_the_work_bound(self, plant, horizon, seed, counts, scheme,
                                                  row_steps):
        # The module docstring's bound: at most
        # sum_j n_j (N - j_low + sum over accepted a > j of (N - a)) row
        # steps, j_low the lowest drawn position, whatever the round width.  An accepted input is strictly
        # cheaper, so the accepted positions are where the plan left the warm
        # start.  The copied model keeps the original one-row step, so the
        # entry rollout is not counted.
        counts = counts[:horizon]
        bench, x0, warm, cfg, _ = solve_from_random_start(plant, horizon, seed, counts, scheme)
        rows = []
        counted = dataclasses.replace(
            bench.model, batch_step=lambda xs, us: rows.append(xs.shape[0])
            or bench.model.batch_step(xs, us))
        with pytest.MonkeyPatch.context() as mp:
            if row_steps is not None:
                mp.setattr(solver, "_ROUND_ROW_STEPS", row_steps)
            result = improve_plan(x0, warm, counted, bench.constraints, bench.cost, cfg)
        accepted = [j for j in range(horizon)
                    if not np.array_equal(result.plan.inputs[j], warm.inputs[j])]
        assert len(accepted) == result.improvements
        j_low = next((j for j, n in enumerate(counts) if n), horizon)
        bound = sum(n * (horizon - j_low + sum(horizon - a for a in accepted if a > j))
                    for j, n in enumerate(counts))
        assert result.f_evals <= sum(rows) <= bound
        assert bound <= sum(counts) * (horizon - j_low) * (1 + len(accepted))

    def test_a_solve_that_accepts_nothing_makes_one_pass(self, cart10):
        # From the origin the zero plan costs 0, so no candidate is strictly
        # cheaper: the first round, from the lowest drawn position 3, is the
        # whole solve, one batched step of all 70 rows per time index from 3.
        # The counters stay the sequential sweep's: position j counts N - j.
        rows = []
        model = dataclasses.replace(
            cart10.model, batch_step=lambda xs, us: rows.append(xs.shape[0])
            or cart10.model.batch_step(xs, us))
        cfg = cart_solver_cfg(samples_per_step=[0, 0, 0] + [10] * 7)
        result = improve_plan(np.zeros(2), Plan(np.zeros((10, 1))), model, cart10.constraints,
                              cart10.cost, cfg)
        assert result.improvements == 0 and result.j_sub == 0.0
        assert rows == [70] * (10 - 3)
        assert result.f_evals == sum((10 - j) * 10 for j in range(3, 10))  # none violates

    def test_windows_make_fewer_batched_calls_than_the_sequential_sweep(self):
        # The sequential sweep at N = 50, ten samples everywhere, makes one
        # batched step per position and time index its rows reach: 1275
        # calls from this start, where no position's rows all fail.  The
        # resumed rounds make fewer.
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
           st.sampled_from(["grid", "random", "halton"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_sweep(self, plant, horizon, seed, counts, scheme):
        counts = counts[:horizon]
        bench, x0, warm, cfg, result = solve_from_random_start(
            plant, horizon, seed, counts, scheme)
        tally = {"f_evals": 0, "cost_evals": 0}
        expected_plan, expected = brute_force_backward_sweep(bench, x0, warm, counts,
                                                             cfg.sampler, tally)
        assert np.array_equal(result.plan.inputs, expected_plan.inputs)
        assert result.j_sub == expected
        assert result.j_sub == warm_cost(bench, x0, result.plan)
        assert np.array_equal(result.states, rollout(bench.model, x0, result.plan))
        assert (result.f_evals, result.cost_evals) == (tally["f_evals"], tally["cost_evals"])
        # The paper's guarantees: a feasible plan, never costlier than the warm start.
        assert check_feasible(bench.constraints, result.states, result.plan).feasible
        assert result.j_sub <= warm_cost(bench, x0, warm)

    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(0, 6), min_size=6, max_size=6),
           st.sampled_from(["grid", "random", "halton"]))
    @settings(max_examples=40, deadline=None)
    def test_counters_match_closed_form_when_no_candidate_violates(self, horizon, seed, counts,
                                                                   scheme):
        # The robot without its obstacle has no constraint a candidate can violate.
        counts = counts[:horizon]
        *_, result = solve_from_random_start("wmr", horizon, seed, counts, scheme,
                                             {"obstacle": None})
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
            ok = solver._step_rows(xs, us, bench.model, bench.constraints, None)
        assert ok.shape == (horizon + 1, width) and not ok[horizon].any()
        first = ok.argmin(axis=0) + 1
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
            ok = solver._step_rows(xs, us, cart10.model, cart10.constraints, None)
        first = ok.argmin(axis=0) + 1
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
    # From (-0.3, -4.8) on cart-cold's hard segment at N = 20 (a velocity
    # below the sampled box), most sequences leave the state box at state 2
    # and full batches drop their failed rows; these seeds put the first
    # feasible one at row 1168 (second full batch) and 2368 (third), and a
    # budget of 2500 cuts the third batch after 388 rows, before row 2368 of
    # seed 19 and row 2944 of seed 0.
    @example("cart-spring", 20, 8, [2.6 / 5.8, -0.1, 0.0], 3136)
    @example("cart-spring", 20, 19, [2.6 / 5.8, -0.1, 0.0], 3136)
    @example("cart-spring", 20, 19, [2.6 / 5.8, -0.1, 0.0], 2500)
    @example("cart-spring", 20, 0, [2.6 / 5.8, -0.1, 0.0], 2500)
    # From (0, -5.5) every sequence of the full batch leaves the box at state 2.
    @example("cart-spring", 20, 1, [0.5, -0.1875, 0.0], 1088)
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

    def test_a_full_batch_steps_only_its_live_sequences(self, monkeypatch):
        bench, big_n = make_benchmark("cart-spring", 20, None), 20
        rows, masks = [], []
        model, states_ok_rows = bench.model, type(bench.constraints).states_ok_rows
        spy = dataclasses.replace(
            model, batch_step=lambda xs, us: rows.append(xs.shape[0]) or model.batch_step(xs, us),
            step=None)
        monkeypatch.setattr(type(bench.constraints), "states_ok_rows",
                            lambda self, xs: masks.append(xs.shape[0]) or states_ok_rows(self, xs))
        # A hard start (see the examples above): neither the probe nor the
        # full batch holds a feasible sequence.
        cfg = SolverConfig(horizon=big_n, oracle_budget=1088,
                           sampler=SamplerConfig(scheme="random", seed=8))
        rows.clear()  # construction checks the equilibrium once
        with pytest.raises(NoOracleError):
            find_oracle(np.array([-0.3, -4.8]), spy, bench.constraints, bench.cost, cfg)
        assert rows[:big_n] == [64] * big_n
        assert 1024 < sum(rows[big_n:]) < 1024 * big_n // 4
        # An easy start checks its state, then masks the probe's states at once.
        masks.clear()
        find_oracle(np.zeros(2), spy, bench.constraints, bench.cost,
                    SolverConfig(horizon=big_n, sampler=SamplerConfig(scheme="random", seed=3)))
        assert masks == [1, (big_n - 1) * 64]


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

    @pytest.mark.parametrize("budget, searched", [(0, 1), (1, 1), (600, 600)])
    def test_a_failed_append_reports_the_samples_it_searched(self, cart10, cart_x0, budget,
                                                             searched):
        # A budget of 0 still searches one sample.
        cfg = cart_solver_cfg(warm_start_mode="feasible-sample", oracle_budget=budget)
        prev = self._solve(cart10, cart_x0, cart_solver_cfg())
        far = dataclasses.replace(prev, states=np.vstack([prev.states[:-1], [[2.6, 3.0]]]))
        with pytest.raises(WarmStartFailureError, match=f"within {searched} samples$"):
            make_warm_start(far, cart_x0, cart10.model, cart10.constraints, cfg)

    @given(st.sampled_from(sorted(NEAR_STATE_SETS)), st.sampled_from(["grid", "random", "halton"]),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 1000),
           st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.sampled_from([0, 1, 64, 65, 256, 257, 300]))
    @settings(max_examples=60, deadline=None)
    # From cart (0.70, -3.5) about one input in 300 steps into the terminal
    # set.  Random seed 0 puts the first such sample at stream index 64,
    # seed 18 at 284 (in the 44-sample tail of a budget of 300), and seed 3
    # has none among the first 300.
    @example("cart-spring", "random", 0, 0, [0.6207, 0.0625, 0.0], 64)
    @example("cart-spring", "random", 0, 0, [0.6207, 0.0625, 0.0], 65)
    @example("cart-spring", "random", 0, 0, [0.6207, 0.0625, 0.0], 300)
    @example("cart-spring", "random", 18, 0, [0.6207, 0.0625, 0.0], 257)
    @example("cart-spring", "random", 18, 0, [0.6207, 0.0625, 0.0], 300)
    @example("cart-spring", "random", 3, 0, [0.6207, 0.0625, 0.0], 300)
    @example("cart-spring", "grid", 0, 0, [0.6207, 0.0625, 0.0], 300)
    @example("cart-spring", "halton", 0, 0, [0.6207, 0.0625, 0.0], 300)
    def test_feasible_sample_appends_the_first_input_into_the_terminal_set(
            self, plant, scheme, seed, counter, where, budget):
        # The budgets straddle the edges of the 256-sample batches; a budget
        # of 0 still draws one sample.
        bench = make_benchmark(plant, 3, None)
        lo, hi = (np.array(v) for v in NEAR_STATE_SETS[plant])
        end = lo + np.array(where[:lo.size]) * (hi - lo)
        model, n = bench.model, bench.model.n
        cfg = SolverConfig(horizon=3, sampler=SamplerConfig(scheme=scheme, seed=seed),
                           warm_start_mode="feasible-sample", oracle_budget=budget)
        prev = SolveResult(plan=Plan(np.zeros((3, model.m))),
                           states=np.vstack([np.zeros((3, n)), end]), j_sub=0.0, f_evals=0,
                           cost_evals=0, improvements=0, elapsed=0.0, budget_hit=False)
        expected, drawn = first_feasible_append(
            bench, end, SamplerState(cfg.sampler, counter=counter), max(budget, 1))
        stream = SamplerState(cfg.sampler, counter=counter)
        if expected is None:
            with pytest.raises(WarmStartFailureError):
                make_warm_start(prev, end, model, bench.constraints, cfg, stream)
        else:
            warm = make_warm_start(prev, end, model, bench.constraints, cfg, stream)
            assert warm.inputs[-1].tobytes() == expected.tobytes()
        assert stream.counter == counter + drawn

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

    def test_each_visited_state_is_stored_once_and_read_only(self, cart10, cart_x0):
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(), cart_x0, 5)
        assert not log.states.flags.writeable
        for k, rec in enumerate(log.records):
            assert np.shares_memory(rec.state, log.states[k]) and not rec.state.flags.writeable
        assert not hasattr(log.records[0], "__dict__")  # a slotted record

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

    @pytest.mark.parametrize("carried", [True, False], ids=["carried", "plain"])
    def test_an_unimproved_period_is_a_solve_with_no_samples(self, carried):
        # closed_loop's unimproved first period passes empty counts, which
        # must give what a config drawing no samples gives, on every plant.
        for plant, horizon in (("cart-spring", 10), ("buck-boost", 10), ("wmr", 5)):
            bench = make_benchmark(plant, horizon, None)
            x0, cfg = bench.default_x0, SolverConfig(horizon=horizon, time_budget=1e-12)
            oracle = find_oracle(x0, bench.model, bench.constraints, bench.cost, cfg)
            warm = oracle if carried else Plan(oracle.inputs)
            args = (x0, warm, bench.model, bench.constraints, bench.cost, cfg)
            got = solver._solve(*args, (), SamplerState(cfg.sampler))
            want = improve_plan(*args[:-1], dataclasses.replace(cfg, samples_per_step=0))
            for name in ("j_sub", "f_evals", "cost_evals", "improvements", "budget_hit"):
                assert getattr(got, name) == getattr(want, name)
            assert got.budget_hit is False
            assert got.plan.inputs.tobytes() == want.plan.inputs.tobytes()
            assert got.states.tobytes() == want.states.tobytes()
            assert not got.states.flags.writeable
            # The plan carries its states, so the next warm start shifts them.
            assert got.plan.states is got.states and got.plan.model is bench.model

    def test_improve_initial_off_never_reports_budget_hit(self, cart10, cart_x0):
        # the first period only certifies and prices its warm start, which
        # never polls the deadline, so an expired budget is reported only
        # from period 1
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
        ("improve_initial", "no"), ("improve_initial", 1.0), ("improve_initial", 0),
        ("improve_initial", None),
        ("time_budget", True), ("time_budget", "5"), ("time_budget", [1.0]),
        ("initial_plan", [[0.0], [0.0], [0.0]]), ("initial_plan", np.zeros((3, 1))),
        ("sampler", "halton"), ("sampler", {"scheme": "random"}),
        pytest.param("time_budget", 10 ** 400, id="time_budget-10**400"),
        pytest.param("initial_plan", Plan(np.zeros((2, 1))), id="initial_plan-horizon-2")])
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
