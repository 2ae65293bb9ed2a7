import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    InfeasibleWarmStartError,
    NoOracleError,
    NoTerminalLawError,
    WarmStartFailureError,
)
from sampled_nmpc import solver
from sampled_nmpc.solver import SolveResult


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
        # A clock that ticks once per reading.  Readings: solve start, before
        # position 9, after its one step, before position 8, after its first
        # step; a 3.5-tick budget expires at that last reading.
        warm = find_oracle(cart_x0, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg())
        last_only = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                                 cart_solver_cfg(samples_per_step=[0] * 8 + [10, 10],
                                                 pruning=False))
        ticks = itertools.count()
        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        cut = improve_plan(cart_x0, warm, cart10.model, cart10.constraints, cart10.cost,
                           cart_solver_cfg(time_budget=3.5, pruning=False))
        assert last_only.improvements == 2  # position 8 would have improved the plan
        assert cut.budget_hit
        assert (cut.f_evals, cut.cost_evals, cut.improvements) == (20, 10, 1)
        assert not np.array_equal(cut.plan.inputs, last_only.plan.inputs)
        assert np.array_equal(cut.plan.inputs[:9], warm.inputs[:9])
        assert cut.j_sub == warm_cost(cart10, cart_x0, cut.plan) < warm_cost(cart10, cart_x0, warm)

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
        prev_end = rollout(cart10.model, cart_x0, prev.plan).states[-1]
        assert np.array_equal(warm.inputs[-1], cart10.model.terminal_law(prev_end))
        traj = rollout(cart10.model, x_new, warm)
        assert check_feasible(cart10.constraints, traj, warm).feasible

    def test_origin_appends_zero(self, cart10):
        cfg = cart_solver_cfg(samples_per_step=0)
        prev = SolveResult(plan=Plan(np.zeros((10, 1))), j_sub=0.0, f_evals=0,
                           cost_evals=0, improvements=0, elapsed=0.0, budget_hit=False)
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
        prev = SolveResult(plan=Plan(np.zeros((5, 2))), j_sub=0.0, f_evals=0,
                           cost_evals=0, improvements=0, elapsed=0.0, budget_hit=False)
        with pytest.raises(NoTerminalLawError):
            make_warm_start(prev, np.zeros(3), wmr5.model, wmr5.constraints, cfg)

    def test_unrepairable_shift_raises(self, wmr5):
        # previous plan parks the robot against the obstacle disc with its
        # certified prefix, then the shift exposes an inadmissible state
        cfg = SolverConfig(horizon=2, samples_per_step=5,
                           sampler=SamplerConfig(scheme="halton", seed=1),
                           warm_start_mode="feasible-sample", oracle_budget=64)
        inputs = np.array([[0.47, 0.0], [0.47, 0.0]])
        prev = SolveResult(plan=Plan(inputs), j_sub=0.0, f_evals=0, cost_evals=0,
                           improvements=0, elapsed=0.0, budget_hit=False)
        # from (0, 4.05, -pi/2) driving straight down 0.047 per step: the first
        # two states are outside the disc, the third is inside
        x0 = np.array([0.0, 4.05, -np.pi / 2])
        x_new = wmr5.model.step(x0, inputs[0])
        with pytest.raises(WarmStartFailureError):
            make_warm_start(prev, x_new, wmr5.model, wmr5.constraints, cfg)


def passes_a_fresh_certificate(bench, x, plan):
    return check_feasible(bench.constraints, rollout(bench.model, x, plan), plan).feasible


class TestCertificates:
    """Plans are certified once where they are built; a fresh rollout and
    check_feasible of every returned plan must agree."""

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
            assert passes_a_fresh_certificate(bench, x, plan)

    def test_failed_terminal_law_append_raises(self):
        # From (2, 0) one step of the terminal law cannot reach the cart's
        # terminal set, so the shifted one-step plan fails its certificate.
        bench = make_benchmark("cart-spring", 1, None)
        cfg = SolverConfig(horizon=1, samples_per_step=0)
        x = np.array([2.0, 0.0])
        prev = SolveResult(plan=Plan([[0.0]]), j_sub=0.0, f_evals=0, cost_evals=0,
                           improvements=0, elapsed=0.0, budget_hit=False)
        append = bench.model.terminal_law(x)
        assert not passes_a_fresh_certificate(bench, x, Plan(append[np.newaxis]))
        with pytest.raises(WarmStartFailureError, match="terminal at index 1"):
            make_warm_start(prev, x, bench.model, bench.constraints, cfg)


class TestClosedLoop:
    def test_zero_steps_logs_initial_state_only(self, cart10, cart_x0):
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost,
                          cart_solver_cfg(), cart_x0, 0)
        assert log.records == ()
        assert np.array_equal(log.states, cart_x0[np.newaxis, :])
        assert log.termination == "completed"

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
        cfg = cart_solver_cfg(warm_start_mode="provided",
                              initial_plan=Plan(np.zeros((10, 1))),
                              samples_per_step=0)
        log = closed_loop(cart10.model, cart10.constraints, cart10.cost, cfg, x0, 3)
        assert np.array_equal(log.states, np.zeros((4, 2)))

    def test_provided_mode_requires_a_plan(self, cart10, cart_x0):
        cfg = cart_solver_cfg(warm_start_mode="provided")
        with pytest.raises(ConfigError):
            closed_loop(cart10.model, cart10.constraints, cart10.cost, cfg, cart_x0, 1)

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
