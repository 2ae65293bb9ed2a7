import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_nmpc import (
    BoxSet,
    CostSpec,
    EllipsoidSet,
    ObstacleSet,
    Plan,
    PlantModel,
    Trajectory,
    check_feasible,
    evaluate_cost,
    make_benchmark,
    rollout,
    shift_plan,
)
from sampled_nmpc.errors import ContractViolationError
from sampled_nmpc.models import BUCK_TERMINAL_LEVEL, CART_TERMINAL_LEVEL, PLANT_IDS

TS, RHO0, MASS, DAMPING = 0.4, 0.33, 1.0, 1.1


def scalar_sweep(constraints, traj, plan):
    """Reference for check_feasible: a per-index scalar sweep with its own
    scalar set tests (state then input at each index, then the end state)."""
    def in_box(box, v):
        return bool(np.all(v >= box.lower) and np.all(v <= box.upper))

    def state_kind(x):
        if not in_box(constraints.state_box, x):
            return "state-box"
        for obs in constraints.obstacles:
            a, b = obs.axes
            da = x[a] - obs.center[0]
            db = x[b] - obs.center[1]
            if not da * da + db * db >= obs.radius * obs.radius:
                return "obstacle"
        return None

    big_n = plan.horizon
    for i in range(big_n):
        kind = state_kind(traj.states[i])
        if kind is not None:
            return (False, i, kind)
        if not in_box(constraints.input_box, plan.inputs[i]):
            return (False, i, "input-bound")
    end = traj.states[big_n]
    if constraints.terminal is None:
        end_ok = state_kind(end) is None
    else:
        end_ok = constraints.terminal.value(end) <= constraints.terminal.level
    return (True, None, None) if end_ok else (False, big_n, "terminal")


# Windows a little wider than each plant's sets, so that a random row fails
# now and then: states (the robot's around its obstacle disc), inputs, and
# the end state around the terminal set's center.
CHECK_WINDOWS = {
    "cart-spring": (([-2.8, -4.0], [2.8, 4.0]), ([-0.8, -0.8], [0.8, 0.8])),
    "buck-boost": (([-0.4, -0.1], [22.8, 3.1]), ([19.0, 0.0], [21.0, 1.0])),
    "wmr": (([-2.0, 1.0, -3.0], [2.0, 5.0, 3.0]), ([-2.0, 1.0, -3.0], [2.0, 5.0, 3.0])),
}


def random_check_case(plant, horizon, seed, with_terminal):
    overrides = None
    if plant != "wmr":
        level = BUCK_TERMINAL_LEVEL if plant == "buck-boost" else CART_TERMINAL_LEVEL
        overrides = {"terminal_level": level if with_terminal else None}
    bench = make_benchmark(plant, horizon, overrides)
    rng = np.random.default_rng(seed)
    (lo, hi), (end_lo, end_hi) = CHECK_WINDOWS[plant]
    box = bench.constraints.input_box
    margin = 0.05 * (box.upper - box.lower)
    states = rng.uniform(lo, hi, (horizon + 1, bench.model.n))
    states[horizon] = rng.uniform(end_lo, end_hi)
    inputs = rng.uniform(box.lower - margin, box.upper + margin, (horizon, bench.model.m))
    return bench.constraints, Trajectory(states), Plan(inputs)


def cart_step_by_hand(x, u):
    """Independent scalar evaluation of the cart difference equations."""
    x1, x2 = x
    return np.array([
        x1 + TS * x2,
        x2 - TS * (RHO0 / MASS) * math.exp(-x1) * x1 - TS * (DAMPING / MASS) * x2 + (TS / MASS) * u,
    ])


class TestRollout:
    def test_equilibrium_stays_put(self, cart10):
        plan = Plan(np.zeros((4, 1)))
        traj = rollout(cart10.model, np.zeros(2), plan)
        assert np.array_equal(traj.states, np.zeros((5, 2)))

    def test_cart_single_step_matches_hand_evaluation(self, cart10):
        traj = rollout(cart10.model, np.array([1.0, 0.0]), Plan([[0.0]]))
        expected = cart_step_by_hand((1.0, 0.0), 0.0)
        assert expected[1] == -TS * RHO0 * math.exp(-1.0)  # only the spring term acts
        np.testing.assert_allclose(traj.states[1], expected, rtol=0, atol=0)

    def test_wmr_single_step(self, wmr5):
        traj = rollout(wmr5.model, np.zeros(3), Plan([[0.47, 0.0]]))
        np.testing.assert_allclose(traj.states[1], [0.47 * 0.1, 0.0, 0.0], atol=1e-15)

    def test_dimension_mismatch_rejected(self, cart10):
        with pytest.raises(ContractViolationError):
            rollout(cart10.model, np.zeros(3), Plan([[0.0]]))
        with pytest.raises(ContractViolationError):
            rollout(cart10.model, np.zeros(2), Plan(np.zeros((3, 2))))

    @given(st.integers(1, 8), st.integers(0, 7), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_prefix_identical_for_plans_agreeing_on_prefix(self, n, j, rnd):
        model = make_benchmark("cart-spring", 1, None).model
        j = min(j, n)
        base = np.array([[rnd.uniform(-4.5, 4.5)] for _ in range(n)])
        other = base.copy()
        for i in range(j, n):
            other[i, 0] = rnd.uniform(-4.5, 4.5)
        x0 = np.array([rnd.uniform(-1, 1), rnd.uniform(-1, 1)])
        t1 = rollout(model, x0, Plan(base))
        t2 = rollout(model, x0, Plan(other))
        # exact equality enables the solver's prefix cache
        assert np.array_equal(t1.states[: j + 1], t2.states[: j + 1])


class TestEvaluateCost:
    def test_zero_everything_costs_zero(self, cart10):
        cost = make_benchmark("cart-spring", 4, None).cost
        plan = Plan(np.zeros((4, 1)))
        traj = Trajectory(np.zeros((5, 2)))
        assert evaluate_cost(cost, traj, plan) == 0.0

    def test_cart_one_step_quadratic_arithmetic(self):
        bench = make_benchmark("cart-spring", 1, None)
        x0 = np.array([1.0, 0.0])
        plan = Plan([[0.0]])
        traj = rollout(bench.model, x0, plan)
        p = np.array([[7.0814, 3.3708], [3.3708, 4.2998]])
        x1 = cart_step_by_hand((1.0, 0.0), 0.0)
        expected = (1.0 * 1.0 + 0.0) + 0.0 + float(x1 @ p @ x1)
        assert evaluate_cost(bench.cost, traj, plan) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(7.764, abs=5e-3)

    def test_wmr_one_step_terminal_only(self):
        bench = make_benchmark("wmr", 1, None)
        x0 = np.array([0.0, 6.0, 0.0])
        plan = Plan([[0.0, 0.0]])
        traj = rollout(bench.model, x0, plan)
        # first stage has zero state weight; terminal weight is 50 * 2^0 * Q
        assert evaluate_cost(bench.cost, traj, plan) == 1800.0

    def test_horizon_mismatch_rejected(self, cart10):
        plan = Plan(np.zeros((3, 1)))
        traj = Trajectory(np.zeros((5, 2)))
        with pytest.raises(ContractViolationError):
            evaluate_cost(cart10.cost, traj, plan)

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=2),
           st.lists(st.floats(-4, 4), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_zero_only_at_reference(self, x0, us):
        bench = make_benchmark("cart-spring", 3, None)
        plan = Plan(np.array(us).reshape(3, 1))
        traj = rollout(bench.model, np.array(x0), plan)
        value = evaluate_cost(bench.cost, traj, plan)
        assert value >= 0.0
        weighted = [bench.cost.stage_cost(j, traj.states[j], plan.inputs[j]) for j in range(3)]
        weighted.append(bench.cost.terminal_cost(traj.states[3]))
        assert (value == 0.0) == all(w == 0.0 for w in weighted)


class TestCheckFeasible:
    def test_origin_zero_plan_feasible(self, cart10):
        bench = make_benchmark("cart-spring", 4, None)
        plan = Plan(np.zeros((4, 1)))
        traj = rollout(bench.model, np.zeros(2), plan)
        report = check_feasible(bench.constraints, traj, plan)
        assert report.feasible and report.violation_index is None

    def test_oversized_input_flagged(self):
        bench = make_benchmark("cart-spring", 4, None)
        inputs = np.zeros((4, 1))
        inputs[2, 0] = 5.0  # |u| <= 4.5
        plan = Plan(inputs)
        traj = rollout(bench.model, np.zeros(2), plan)
        report = check_feasible(bench.constraints, traj, plan)
        assert not report.feasible
        assert report.violation_kind == "input-bound"
        assert report.violation_index == 2

    def test_position_bound_violated_after_one_step(self):
        bench = make_benchmark("cart-spring", 4, None)
        plan = Plan(np.zeros((4, 1)))
        traj = rollout(bench.model, np.array([2.6, 3.0]), plan)
        assert traj.states[1][0] == pytest.approx(2.6 + 0.4 * 3.0)
        report = check_feasible(bench.constraints, traj, plan)
        assert (report.feasible, report.violation_index, report.violation_kind) == \
            (False, 1, "state-box")

    def test_terminal_violation_reported_at_horizon(self):
        bench = make_benchmark("cart-spring", 1, None)
        plan = Plan([[0.0]])
        traj = rollout(bench.model, np.array([1.0, 0.0]), plan)
        report = check_feasible(bench.constraints, traj, plan)
        assert (report.violation_index, report.violation_kind) == (1, "terminal")

    def test_obstacle_violation_kind(self, wmr5):
        plan = Plan(np.zeros((5, 2)))
        inside = np.array([0.0, 3.2, 0.0])  # inside the unit disc at (0, 3)
        traj = rollout(wmr5.model, inside, plan)
        report = check_feasible(wmr5.constraints, traj, plan)
        assert (report.violation_index, report.violation_kind) == (0, "obstacle")

    @given(st.integers(0, 4))
    @settings(max_examples=20, deadline=None)
    def test_flipping_one_state_flips_the_report(self, idx):
        bench = make_benchmark("cart-spring", 4, None)
        plan = Plan(np.zeros((4, 1)))
        traj = rollout(bench.model, np.zeros(2), plan)
        assert check_feasible(bench.constraints, traj, plan).feasible
        states = traj.states.copy()
        states[idx] = [3.0, 0.0]  # outside |x1| <= 2.65 and outside the terminal set
        report = check_feasible(bench.constraints, Trajectory(states), plan)
        assert not report.feasible
        assert report.violation_index == idx
        assert report.violation_kind == ("terminal" if idx == 4 else "state-box")


    @given(st.sampled_from(PLANT_IDS), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_sweep(self, plant, horizon, seed, with_terminal):
        constraints, traj, plan = random_check_case(plant, horizon, seed, with_terminal)
        report = check_feasible(constraints, traj, plan)
        assert (report.feasible, report.violation_index, report.violation_kind) == \
            scalar_sweep(constraints, traj, plan)

    def test_reference_cases_reach_every_outcome(self):
        outcomes = set()
        for plant in PLANT_IDS:
            for seed in range(60):
                case = random_check_case(plant, 1 + seed % 8, seed, seed % 2 == 0)
                report = check_feasible(*case)
                assert (report.feasible, report.violation_index, report.violation_kind) == \
                    scalar_sweep(*case)
                outcomes.add(report.violation_kind)
        assert outcomes == {None, "state-box", "obstacle", "input-bound", "terminal"}


class TestShiftPlan:
    def test_shift_drops_head_appends_tail(self):
        plan = Plan(np.array([[1.0], [2.0], [3.0]]))
        shifted = shift_plan(plan, np.array([4.0]))
        assert np.array_equal(shifted.inputs, np.array([[2.0], [3.0], [4.0]]))

    def test_single_step_plan_becomes_the_append(self):
        shifted = shift_plan(Plan([[1.0]]), np.array([9.0]))
        assert np.array_equal(shifted.inputs, np.array([[9.0]]))

    def test_terminal_law_append_is_feasible_recipe(self, cart10):
        # inside the terminal set the published feedback is the canonical append
        x = np.zeros(2)
        u = cart10.model.terminal_law(x)
        assert np.array_equal(u, np.zeros(1))

    @given(st.lists(st.floats(-4, 4), min_size=1, max_size=6),
           st.lists(st.floats(-4, 4), min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_repeated_shifts_reconstruct_any_plan(self, start, appends):
        n = len(start)
        plan = Plan(np.array(start).reshape(n, 1))
        target = np.array(appends[:n]).reshape(n, 1)
        for value in target:
            plan = shift_plan(plan, value)
        assert np.array_equal(plan.inputs, target)


class TestTypeInvariants:
    def test_plan_requires_finite_entries(self):
        with pytest.raises(ContractViolationError):
            Plan([[np.nan]])
        with pytest.raises(ContractViolationError):
            Plan(np.zeros((0, 1)))

    def test_plan_is_immutable(self):
        plan = Plan([[1.0]])
        with pytest.raises(ValueError):
            plan.inputs[0, 0] = 2.0

    def test_plant_model_rejects_wrong_equilibrium(self):
        with pytest.raises(ContractViolationError):
            PlantModel(n=1, m=1, batch_step=lambda xs, us: xs + 1.0,
                       equilibrium=(np.zeros(1), np.zeros(1)))

    def test_step_is_the_one_row_case_of_batch_step(self):
        model = PlantModel(n=1, m=1, batch_step=lambda xs, us: 0.5 * xs + us,
                           equilibrium=(np.zeros(1), np.zeros(1)))
        assert np.array_equal(model.step(np.array([2.0]), np.array([1.0])), [2.0])
        rescaled = replace(model, batch_step=lambda xs, us: 0.25 * xs + 2.0 * us, step=None)
        assert np.array_equal(rescaled.step(np.array([2.0]), np.array([1.0])), [2.5])

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ContractViolationError):
            BoxSet(np.array([1.0]), np.array([0.0]))

    def test_box_membership_is_closed(self):
        box = BoxSet(np.array([-1.0]), np.array([1.0]))
        assert box.contains(np.array([1.0])) and box.contains(np.array([-1.0]))
        assert not box.contains(np.array([1.0000000000000002]))

    def test_ellipsoid_requires_spd_shape(self):
        with pytest.raises(ContractViolationError):
            EllipsoidSet(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0)
        with pytest.raises(ContractViolationError):
            EllipsoidSet(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0)
        with pytest.raises(ContractViolationError):
            EllipsoidSet(np.zeros(2), np.eye(2), 0.0)

    def test_ellipsoid_membership_rule(self):
        ell = EllipsoidSet(np.array([1.0, 0.0]), np.diag([1.0, 4.0]), 1.0)
        assert ell.contains(np.array([2.0, 0.0]))
        assert not ell.contains(np.array([2.0, 0.3]))

    def test_obstacle_exclusion_rule(self):
        obs = ObstacleSet(np.array([0.0, 3.0]), 1.0)
        assert obs.admits(np.array([1.0, 3.0, 0.0]))  # on the boundary counts as clear
        assert not obs.admits(np.array([0.5, 3.0, 0.0]))

    def test_constraint_spec_without_terminal_checks_state_set(self, wmr5):
        # no designed terminal set: the end state falls back to the state set
        assert wmr5.constraints.terminal is None
        assert wmr5.constraints.terminal_ok(np.array([0.0, 6.0, 0.0]))
        assert not wmr5.constraints.terminal_ok(np.array([0.0, 3.0, 0.0]))

    def test_cost_spec_validates_weights(self):
        with pytest.raises(ContractViolationError):
            CostSpec.constant(np.diag([1.0, -1.0]), [[1.0]], np.eye(2), 3)
        with pytest.raises(ContractViolationError):
            CostSpec.constant(np.eye(2), [[0.0]], np.eye(2), 3)
        with pytest.raises(ContractViolationError):
            CostSpec((np.eye(2),) * 2, ([[1.0]],) * 2,
                     np.array([[1.0, 2.0], [2.0, 1.0]]) * -1.0, (np.zeros(2), np.zeros(1)))

    def test_feasibility_report_consistency(self):
        from sampled_nmpc import FeasibilityReport
        with pytest.raises(ContractViolationError):
            FeasibilityReport(True, 3, "state-box")
