import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sampled_nmpc import (
    BoxSet,
    ConstraintSpec,
    CostSpec,
    EllipsoidSet,
    ObstacleSet,
    Plan,
    PlantModel,
    SolverConfig,
    check_feasible,
    closed_loop,
    evaluate_cost,
    improve_plan,
    make_benchmark,
    rollout,
    shift_plan,
)
from sampled_nmpc.core import _quadratic_rows, as_vector
from sampled_nmpc.errors import ContractViolationError
from sampled_nmpc.models import BUCK_TERMINAL_LEVEL, CART_P, CART_TERMINAL_LEVEL, PLANT_IDS
from test_models import ellipsoid_value

TS, RHO0, MASS, DAMPING = 0.4, 0.33, 1.0, 1.1


def scalar_sweep(constraints, states, plan):
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
        kind = state_kind(states[i])
        if kind is not None:
            return (False, i, kind)
        if not in_box(constraints.input_box, plan.inputs[i]):
            return (False, i, "input-bound")
    end = states[big_n]
    if constraints.terminal is None:
        end_ok = state_kind(end) is None
    else:
        end_ok = ellipsoid_value(constraints.terminal, end) <= constraints.terminal.level
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
    return bench.constraints, states, Plan(inputs)


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
        states = rollout(cart10.model, np.zeros(2), plan)
        assert np.array_equal(states, np.zeros((5, 2)))

    def test_cart_single_step_matches_hand_evaluation(self, cart10):
        states = rollout(cart10.model, np.array([1.0, 0.0]), Plan([[0.0]]))
        expected = cart_step_by_hand((1.0, 0.0), 0.0)
        assert expected[1] == -TS * RHO0 * math.exp(-1.0)  # only the spring term acts
        np.testing.assert_allclose(states[1], expected, rtol=0, atol=0)

    def test_wmr_single_step(self, wmr5):
        states = rollout(wmr5.model, np.zeros(3), Plan([[0.47, 0.0]]))
        np.testing.assert_allclose(states[1], [0.47 * 0.1, 0.0, 0.0], atol=1e-15)

    def test_returns_a_read_only_float64_array(self, wmr5):
        states = rollout(wmr5.model, np.zeros(3), Plan(np.full((5, 2), 0.1)))
        assert isinstance(states, np.ndarray)
        assert (states.shape, states.dtype) == ((6, 3), np.float64)
        with pytest.raises(ValueError):
            states[1, 0] = 0.0

    @pytest.mark.parametrize("shape", [(5,), (4, 2), (6, 2)], ids=["1-D", "short", "long"])
    def test_cost_and_check_take_n_plus_one_rows(self, shape):
        bench = make_benchmark("cart-spring", 4, None)
        plan = Plan(np.zeros((4, 1)))
        with pytest.raises(ContractViolationError):
            evaluate_cost(bench.cost, np.zeros(shape), plan)
        with pytest.raises(ContractViolationError):
            check_feasible(bench.constraints, np.zeros(shape), plan)

    def test_dimension_mismatch_rejected(self, cart10):
        with pytest.raises(ContractViolationError):
            rollout(cart10.model, np.zeros(3), Plan([[0.0]]))
        with pytest.raises(ContractViolationError):
            rollout(cart10.model, np.zeros(2), Plan(np.zeros((3, 2))))

    # The cart at N = 3: n = 2, m = 1.  Each call is refused with both
    # numbers named, where it used to raise an untyped error or pass.
    @pytest.mark.parametrize("call, states, m, numbers", [
        ("check", (4, 1), 1, ("1", "2")),  # IndexError
        ("check", (4, 3), 1, ("3", "2")),  # ValueError
        ("check", (4, 2), 2, ("2", "1")),  # feasible: the second input was never tested
        ("cost", (4, 1), 1, ("1", "2")),  # 0.0
        ("cost", (4, 2), 2, ("2", "1")),  # a matmul ValueError
    ], ids=["check-narrow-states", "check-wide-states", "check-wide-plan", "cost-narrow-states",
            "cost-wide-plan"])
    def test_mismatched_widths_are_refused_naming_both(self, call, states, m, numbers):
        bench = make_benchmark("cart-spring", 3, None)
        plan = Plan(np.zeros((3, m)))
        with pytest.raises(ContractViolationError,
                           match=rf"\b{numbers[0]}\b.*\b{numbers[1]}\b") as caught:
            if call == "check":
                check_feasible(bench.constraints, np.zeros(states), plan)
            else:
                evaluate_cost(bench.cost, np.zeros(states), plan)
        assert type(caught.value) is ContractViolationError

    @pytest.mark.parametrize("part", ["state-box", "cost"])
    def test_a_solve_refuses_sets_or_costs_of_another_dimension(self, part):
        # The cart at N = 5 with a one-column state box and no terminal set
        # (once solved with only x1 constrained) or a one-dimensional cost
        # (once a matmul ValueError).
        bench = make_benchmark("cart-spring", 5, None)
        constraints, cost = bench.constraints, bench.cost
        if part == "state-box":
            constraints = replace(constraints, state_box=BoxSet([-2.65], [2.65]), terminal=None)
        else:
            cost = CostSpec.constant([[1.0]], [[1.0]], [[1.0]], 5)
        with pytest.raises(ContractViolationError, match=r"\b1\b.*\b2\b") as caught:
            improve_plan(np.zeros(2), Plan(np.zeros((5, 1))), bench.model, constraints, cost,
                         SolverConfig(horizon=5))
        assert type(caught.value) is ContractViolationError

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
        assert np.array_equal(t1[: j + 1], t2[: j + 1])


class TestEvaluateCost:
    def test_zero_everything_costs_zero(self, cart10):
        cost = make_benchmark("cart-spring", 4, None).cost
        plan = Plan(np.zeros((4, 1)))
        assert evaluate_cost(cost, np.zeros((5, 2)), plan) == 0.0

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
        with pytest.raises(ContractViolationError):
            evaluate_cost(cart10.cost, np.zeros((5, 2)), plan)

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=2),
           st.lists(st.floats(-4, 4), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_zero_only_at_reference(self, x0, us):
        bench = make_benchmark("cart-spring", 3, None)
        plan = Plan(np.array(us).reshape(3, 1))
        traj = rollout(bench.model, np.array(x0), plan)
        value = evaluate_cost(bench.cost, traj, plan)
        assert value >= 0.0
        weighted = [bench.cost.stage_cost(j, traj[j], plan.inputs[j]) for j in range(3)]
        weighted.append(bench.cost.terminal_cost(traj[3]))
        assert (value == 0.0) == all(w == 0.0 for w in weighted)


class TestFoldCosts:
    # Widths up to 1100 (1024, the oracle's batch size, is always tried) and
    # horizons up to 50: the fold prices each time index with one stacked
    # matmul, whose bits must not depend on the batch, its strides or start.
    @given(st.sampled_from(PLANT_IDS), st.integers(1, 50), st.just(1024) | st.integers(1, 1100),
           st.integers(0, 2 ** 32 - 1))
    @example("cart-spring", 50, 1024, 0)
    @settings(max_examples=40, deadline=None)
    def test_a_row_gets_the_same_bits_whatever_the_batch_start_and_base(self, plant, horizon,
                                                                         width, seed):
        cost = make_benchmark(plant, horizon, None).cost
        n, m = cost.terminal_weight.shape[0], cost.stage_input_weights[0].shape[0]
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-5.0, 5.0, (horizon + 1, width, n))
        us = rng.uniform(-5.0, 5.0, (horizon, width, m))
        full = cost.fold(0, 0.0, xs, us)
        assert full.shape == (horizon + 2, width)
        sample = sorted({0, width - 1, int(rng.integers(width))})
        for b in sample:
            # The sequential fold of the scalar kernels, in Python floats.
            running = [0.0]
            for j in range(horizon):
                running.append(running[-1] + cost.stage_cost(j, xs[j, b], us[j, b]))
            running.append(running[-1] + cost.terminal_cost(xs[horizon, b]))
            assert full[:, b].tolist() == running
            assert evaluate_cost(cost, xs[:, b], Plan(us[:, b])) == full[-1, b]
            # Continuing from any stage with the running value there as base.
            for start in range(horizon + 1):
                one = cost.fold(start, full[start, b], xs[start:, b:b + 1], us[start:, b:b + 1])
                assert np.array_equal(one[:, 0], full[start:, b])
        # One base for the batch, its reversal and a strided view of its
        # rows: each row matches its one-row call.
        start = int(rng.integers(0, horizon + 1))
        base = float(rng.uniform(0.0, 100.0))
        batch = cost.fold(start, base, xs[start:], us[start:])
        assert np.array_equal(cost.fold(start, base, xs[start:, ::-1], us[start:, ::-1]),
                              batch[:, ::-1])
        assert np.array_equal(cost.fold(start, base, xs[start:, ::2], us[start:, ::2]),
                              batch[:, ::2])
        for b in sample:
            one = cost.fold(start, base, xs[start:, b:b + 1], us[start:, b:b + 1])
            assert np.array_equal(batch[:, b], one[:, 0])
        # One base per row: each row matches its call with that base alone,
        # and resuming from the running costs at a stage repeats the fold.
        bases = rng.uniform(0.0, 100.0, width)
        rows = cost.fold(start, bases, xs[start:], us[start:])
        for b in sample:
            one = cost.fold(start, bases[b], xs[start:, b:b + 1], us[start:, b:b + 1])
            assert np.array_equal(rows[:, b], one[:, 0])
        later = int(rng.integers(start, horizon + 1))
        assert np.array_equal(cost.fold(later, full[later], xs[later:], us[later:]),
                              full[later:])

    # The fold prices states 0..T with one quadratic form over the spec's one
    # state-weight stack (Q_start..Q_{N-1}, P): it must give the bits of the
    # scalar stage costs then the terminal cost, added left to right, on
    # every start stage.
    @given(st.sampled_from(PLANT_IDS), st.integers(1, 12), st.just(1024) | st.integers(1, 1100),
           st.integers(0, 2 ** 32 - 1))
    @example("wmr", 12, 1, 0)
    @settings(max_examples=30, deadline=None)
    def test_one_state_pass_equals_stage_then_terminal_costs(self, plant, horizon, width, seed):
        cost = make_benchmark(plant, horizon, None).cost
        n, m = cost.terminal_weight.shape[0], cost.stage_input_weights[0].shape[0]
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-5.0, 5.0, (horizon + 1, width, n)) + cost.reference[0]
        us = rng.uniform(-5.0, 5.0, (horizon, width, m)) + cost.reference[1]
        zero = rng.integers(width)  # a row of -0.0, and a row at the reference
        xs[:, zero], us[:, zero] = -0.0, -0.0
        xs[:, width - 1], us[:, width - 1] = cost.reference[0], cost.reference[1]
        bases = rng.uniform(0.0, 100.0, width)
        bases[zero] = -0.0
        terms = np.array([[cost.stage_cost(j, xs[j, b], us[j, b]) for b in range(width)]
                          for j in range(horizon)]
                         + [[cost.terminal_cost(x) for x in xs[horizon]]])
        for start in range(horizon + 1):
            for base in (float(bases[0]), bases):
                folded = np.concatenate([np.broadcast_to(base, (1, width)), terms[start:]])
                want = np.add.accumulate(folded, axis=0)  # left to right, per row
                got = cost.fold(start, base, xs[start:], us[start:])
                assert got.tobytes() == want.tobytes()


class TestQuadraticRows:
    # Rows of widths up to 1100 (1024, the oracle's batch size, always
    # tried), one or stacked weights, with -0.0, +0.0 and values whose sum
    # depends on the order of the adds.
    @given(st.integers(1, 3), st.integers(0, 3), st.just(1024) | st.integers(1, 1100),
           st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.5]))
    @example(2, 0, 1024, 0, 0.5)
    @example(3, 2, 1, 1, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_left_to_right_columns_equal_numpys_sum(self, k, times, width, seed, zeros):
        rng = np.random.default_rng(seed)
        shape = (width, k) if times == 0 else (times, width, k)
        d = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        d[rng.random(shape) < zeros] = 0.0
        d[rng.random(shape) < zeros / 2] *= -1.0  # signed zeros among them
        w = rng.standard_normal((k, k))
        w = w @ w.T
        if times:
            w = np.stack([w * (t + 1) for t in range(times)])
        expected = ((d @ w) * d).sum(axis=-1)
        got = _quadratic_rows(d, w)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    # The d @ W products come from the linked BLAS, which may fuse multiplies
    # and adds, so their bits need not be those of left-to-right products; a
    # row's bits must still be the same alone, in a batch of any width and in
    # a stacked (T, B, k) call.  This is what makes j_sub equal a fresh
    # evaluate_cost bit for bit.
    @given(st.sampled_from(PLANT_IDS), st.just(1024) | st.integers(1, 1100),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_a_row_has_the_same_bits_alone_in_any_batch_and_stacked(self, plant, width, seed):
        cost = make_benchmark(plant, 3, None).cost
        rng = np.random.default_rng(seed)
        rows = rng.choice(width, min(width, 8), replace=False)
        for w in (cost.stage_state_weights, cost.stage_input_weights, cost.terminal_weight[None]):
            d = rng.standard_normal((w.shape[0], width, w.shape[-1]))
            d *= 10.0 ** rng.integers(-3, 4, d.shape)
            stacked = _quadratic_rows(d, w)
            for t in range(w.shape[0]):
                batch = _quadratic_rows(d[t], w[t])
                alone = [_quadratic_rows(d[t, b:b + 1], w[t])[0] for b in rows]
                assert batch.tobytes() == stacked[t].tobytes()
                assert np.array(alone).tobytes() == batch[rows].tobytes()

    @pytest.mark.parametrize("width", [1, 64, 1024])
    def test_a_row_of_negative_zeros_sums_to_positive_zero(self, width):
        d = np.tile([-0.0, -0.0], (width, 1))
        w = -np.eye(2)
        assert np.signbit((d @ w) * d).all()  # both columns of every row are -0.0
        assert not _quadratic_rows(d, w).view(np.uint64).any()


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
        assert traj[1][0] == pytest.approx(2.6 + 0.4 * 3.0)
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
        states = traj.copy()
        states[idx] = [3.0, 0.0]  # outside |x1| <= 2.65 and outside the terminal set
        report = check_feasible(bench.constraints, states, plan)
        assert not report.feasible
        assert report.violation_index == idx
        assert report.violation_kind == ("terminal" if idx == 4 else "state-box")

    # A state whose set tests overflow is judged without a RuntimeWarning:
    # an infinite end state leaves the cart's terminal ellipsoid, and the
    # robot's box leaves its position free, so a far state clears the obstacle.
    @pytest.mark.parametrize("plant, idx, far, want", [
        ("cart-spring", 3, [np.inf, 0.0], (False, 3, "terminal")),
        ("wmr", 1, [1e200, 0.0, 0.0], (True, None, None))])
    def test_a_state_that_overflows_the_set_tests_raises_no_warning(self, plant, idx, far, want):
        bench = make_benchmark(plant, 3, None)
        plan = Plan(np.zeros((3, bench.model.m)))
        states = np.zeros((4, bench.model.n))
        states[idx] = far
        report = check_feasible(bench.constraints, states, plan)
        assert (report.feasible, report.violation_index, report.violation_kind) == want


    @given(st.sampled_from(PLANT_IDS), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_sweep(self, plant, horizon, seed, with_terminal):
        constraints, states, plan = random_check_case(plant, horizon, seed, with_terminal)
        report = check_feasible(constraints, states, plan)
        assert (report.feasible, report.violation_index, report.violation_kind) == \
            scalar_sweep(constraints, states, plan)

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


class TestPathOkRows:
    # Every constraint-set kind: a terminal ellipsoid (the cart, the converter
    # at its calibrated level), none with a box (the converter) and none
    # with an obstacle (the robot).
    PATH_SETS = {
        "cart": ("cart-spring", None),
        "buck-terminal": ("buck-boost", {"terminal_level": BUCK_TERMINAL_LEVEL}),
        "buck": ("buck-boost", None),
        "wmr": ("wmr", None),
    }

    @given(st.sampled_from(sorted(PATH_SETS)), st.integers(1, 12), st.integers(0, 300),
           st.integers(0, 3), st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
    @example("cart", 1, 0, 0, 0, 0)
    @example("buck-terminal", 1, 300, 3, 5, 1)
    @settings(max_examples=120, deadline=None)
    def test_the_end_takes_the_terminal_rule_and_the_rest_the_state_set(
            self, name, big_t, width, t0, a, seed):
        plant, overrides = self.PATH_SETS[name]
        constraints = make_benchmark(plant, 3, overrides).constraints
        (lo, hi), (end_lo, end_hi) = CHECK_WINDOWS[plant]
        rng = np.random.default_rng(seed)
        # A strided block xs[t0:, a:b] of a larger tensor, the end states
        # drawn around the terminal set, with NaN and +-inf entries.
        xs = rng.uniform(lo, hi, (t0 + big_t, a + width + 2, len(lo)))
        xs[-1] = rng.uniform(end_lo, end_hi, xs[-1].shape)
        special = rng.random(xs.shape) < 0.02
        xs[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
        block = xs[t0:, a:a + width]
        with np.errstate(invalid="ignore"):  # inf - inf in the ellipsoid's form
            ok = constraints.path_ok_rows(block)
            assert ok.shape == (big_t, width) and ok.dtype == bool
            for t in range(big_t - 1):
                assert np.array_equal(ok[t], constraints.states_ok_rows(block[t]))
            assert np.array_equal(ok[-1], constraints.terminal_ok_rows(block[-1]))

    @pytest.mark.parametrize("name", sorted(PATH_SETS))
    def test_one_mask_call_without_a_terminal_set_and_none_empty(self, monkeypatch, name):
        plant, overrides = self.PATH_SETS[name]
        constraints = make_benchmark(plant, 3, overrides).constraints
        masked = []
        states_ok_rows = ConstraintSpec.states_ok_rows
        monkeypatch.setattr(ConstraintSpec, "states_ok_rows",
                            lambda self, rows: masked.append(rows.shape[0])
                            or states_ok_rows(self, rows))
        n = constraints.state_box.dim
        constraints.path_ok_rows(np.zeros((1, 5, n)))  # the end alone
        constraints.path_ok_rows(np.zeros((4, 5, n)))
        # With a terminal set the end alone makes no state-mask call and the
        # 15 states before the end make one; without one each block is one
        # call, its end included.
        assert masked == ([15] if constraints.terminal is not None else [5, 20])


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

    @pytest.mark.parametrize("inputs", [[0.0, 1.0], np.zeros(3), np.zeros((2, 1, 1))],
                             ids=["list", "1-D", "3-D"])
    def test_a_plan_is_n_by_m(self, inputs):
        with pytest.raises(ContractViolationError, match=r"^plan must stack N >= 1 inputs"):
            Plan(inputs)

    @pytest.mark.parametrize("build, name", [
        (lambda b: replace(b.cost, reference=("ab", np.zeros(1))), "state reference"),
        (lambda b: replace(b.cost, reference=(np.zeros(2), [[1.0], [2.0, 3.0]])),
         "input reference"),
        (lambda b: replace(b.cost, terminal_weight=[["a", "b"], ["c", "d"]]), "terminal weight"),
        (lambda b: EllipsoidSet(np.zeros(2), [["a", "b"], ["c", "d"]], 1.0), "ellipsoid shape"),
        (lambda b: EllipsoidSet([[0.0], [0.0, 1.0]], np.eye(2), 1.0), "ellipsoid center"),
        (lambda b: rollout(b.model, "ab", Plan(np.zeros((3, 1)))), "initial state"),
        (lambda b: rollout(b.model, [10 ** 400, 0.0], Plan(np.zeros((3, 1)))), "initial state"),
        (lambda b: shift_plan(Plan(np.zeros((3, 1))), ["x"]), "appended input"),
        (lambda b: improve_plan("ab", Plan(np.zeros((3, 1))), b.model, b.constraints, b.cost,
                                SolverConfig(horizon=3)), "state"),
        (lambda b: PlantModel(n=1, m=1, batch_step=lambda xs, us: xs,
                              equilibrium=(["a"], [0.0])), "equilibrium state"),
        (lambda b: Plan([["a"]]), "plan"),
        (lambda b: Plan([[1.0], [1.0, 2.0]]), "plan"),
        (lambda b: BoxSet(["a"], ["b"]), "box lower"),
        (lambda b: EllipsoidSet(np.zeros(2), np.eye(2), "x"), "ellipsoid level"),
        (lambda b: ObstacleSet(np.zeros(2), "r"), "obstacle radius"),
        (lambda b: ObstacleSet(np.zeros(2), 1.0, "a"), "obstacle axes"),
        # Numeric strings and bools are no numbers either, as in a config.
        (lambda b: Plan([["1.5"]]), "plan"),
        (lambda b: Plan([[True]]), "plan"),
        (lambda b: as_vector(["1", "2"]), "vector"),
        (lambda b: BoxSet(["-1"], ["1"]), "box lower"),
        (lambda b: EllipsoidSet(np.zeros(2), CART_P, "4.7"), "ellipsoid level"),
        (lambda b: CostSpec.constant("1", "1", "2", 3), "stage state weight q"),
        (lambda b: closed_loop(b.model, b.constraints, b.cost, SolverConfig(horizon=3),
                               ["0.1", "0"], 1), "initial state"),
        # Numbers out of their range, and arguments that disagree.
        (lambda b: ObstacleSet(np.zeros(2), 0.0), "obstacle radius"),
        (lambda b: ObstacleSet(np.zeros(2), -1.0), "obstacle radius"),
        (lambda b: ConstraintSpec(b.constraints.state_box, b.constraints.input_box, (),
                                  EllipsoidSet(np.zeros(3), np.eye(3), 1.0)), "terminal set"),
        (lambda b: improve_plan(np.zeros(2), Plan(np.zeros((2, 1))), b.model, b.constraints,
                                b.cost, SolverConfig(horizon=3)), "warm start has horizon 2"),
        (lambda b: improve_plan(np.zeros(2), Plan(np.zeros((4, 1))), b.model, b.constraints,
                                b.cost, SolverConfig(horizon=4)), "cost horizon"),
    ], ids=["reference-string", "reference-ragged", "terminal-weight-strings",
            "ellipsoid-shape-strings", "ellipsoid-center-ragged", "rollout-string",
            "rollout-overflow", "shift-string", "improve-string", "equilibrium-string",
            "plan-string", "plan-ragged", "box-strings", "ellipsoid-level-string",
            "obstacle-radius-string", "obstacle-axes-string", "plan-numeric-string",
            "plan-bool", "as-vector-numeric-strings", "box-numeric-strings",
            "ellipsoid-level-numeric-string", "cost-constant-numeric-strings",
            "closed-loop-numeric-strings", "obstacle-radius-zero", "obstacle-radius-negative",
            "terminal-set-dimension", "warm-start-horizon", "cost-horizon"])
    def test_malformed_numbers_raise_the_typed_error_naming_the_argument(self, build, name):
        with pytest.raises(ContractViolationError, match=name):
            build(make_benchmark("cart-spring", 3, None))

    def test_plan_is_immutable(self):
        plan = Plan([[1.0]])
        with pytest.raises(ValueError):
            plan.inputs[0, 0] = 2.0

    def test_plant_model_rejects_wrong_equilibrium(self):
        with pytest.raises(ContractViolationError):
            PlantModel(n=1, m=1, batch_step=lambda xs, us: xs + 1.0,
                       equilibrium=(np.zeros(1), np.zeros(1)))

    def test_a_step_of_the_wrong_shape_is_refused(self):
        # Checked once at the equilibrium when the model is built, and on
        # every step of a rollout, where a state away from it may differ.
        with pytest.raises(ContractViolationError,
                           match=r"^step must return a length-1 state, got shape \(2,\)$"):
            PlantModel(n=1, m=1, batch_step=lambda xs, us: np.zeros((len(xs), 2)),
                       equilibrium=(np.zeros(1), np.zeros(1)))
        model = PlantModel(n=1, m=1, equilibrium=(np.zeros(1), np.zeros(1)),
                           batch_step=lambda xs, us: xs if not xs.any() else np.zeros((1, 2)))
        with pytest.raises(ContractViolationError, match="^step returned a state of wrong shape$"):
            rollout(model, [1.0], Plan([[0.0]]))

    def test_a_map_that_ignores_the_batch_is_refused(self, cart10):
        # Its one-row case is right, so only a batch shows it: the sweep would
        # store the first row's successor for every row.
        good = cart10.model.batch_step
        with pytest.raises(ContractViolationError,
                           match=r"^batch_step must return \(2, 2\) states .* got \(1, 2\)$"):
            replace(cart10.model, batch_step=lambda xs, us: good(xs[:1], us[:1]), step=None)

    def test_a_map_that_gives_nan_at_the_equilibrium_is_refused(self):
        with pytest.raises(ContractViolationError, match="not a fixed point"):
            PlantModel(n=1, m=1, batch_step=lambda xs, us: xs * np.nan,
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
        assert box.contains_rows(np.array([[1.0], [-1.0]])).all()
        assert not box.contains_rows(np.array([[1.0000000000000002]]))[0]
        assert box.is_bounded
        for lo, hi in (([-1.0, 0.0], [1.0, np.inf]), ([-np.inf], [np.inf])):
            assert not BoxSet(np.array(lo), np.array(hi)).is_bounded  # half- and unbounded

    @given(st.data(), st.integers(1, 4), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_box_mask_equals_the_closed_interval_test(self, data, dim, count):
        finite = st.floats(-10.0, 10.0)
        column = st.one_of(
            st.tuples(finite, finite).map(sorted),  # bounded
            finite.map(lambda hi: (-np.inf, hi)), finite.map(lambda lo: (lo, np.inf)),
            st.sampled_from([(-np.inf, np.inf), (-np.inf, -np.inf), (np.inf, np.inf)]))
        lo, hi = np.array(data.draw(st.lists(column, min_size=dim, max_size=dim))).T
        box = BoxSet(lo, hi)
        entry = st.one_of(st.floats(-12.0, 12.0),
                          st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                          st.sampled_from(sorted(set(lo) | set(hi))))
        rows = np.array(data.draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                                           min_size=count, max_size=count)),
                        dtype=np.float64).reshape(count, dim)
        if data.draw(st.booleans()):  # a strided view, as a window's rows are
            rows = np.repeat(rows, 2, axis=1)[:, ::2]
        mask = box.contains_rows(rows)
        assert mask.dtype == np.bool_ and mask.shape == (count,)
        assert not np.shares_memory(mask, rows)
        assert np.array_equal(mask, np.all((rows >= lo) & (rows <= hi), axis=1))

    def test_box_mask_rejects_nan_in_every_kind_of_column(self):
        box = BoxSet(np.array([-1.0, -np.inf, 0.0, -np.inf]),
                     np.array([1.0, 2.0, np.inf, np.inf]))
        for col in range(4):
            row = np.zeros((1, 4))
            row[0, col] = np.nan
            assert not box.contains_rows(row)[0]
        assert box.contains_rows(np.array([[1.0, -np.inf, np.inf, -np.inf]]))[0]
        assert box.contains_rows(np.empty((0, 4))).shape == (0,)
        assert BoxSet(np.empty(0), np.empty(0)).contains_rows(np.empty((3, 0))).all()

    def test_ellipsoid_requires_spd_shape(self):
        with pytest.raises(ContractViolationError):
            EllipsoidSet(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0)
        with pytest.raises(ContractViolationError):
            EllipsoidSet(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0)
        with pytest.raises(ContractViolationError):
            EllipsoidSet(np.zeros(2), np.eye(2), 0.0)

    def test_ellipsoid_membership_rule(self):
        ell = EllipsoidSet(np.array([1.0, 0.0]), np.diag([1.0, 4.0]), 1.0)
        assert ell.contains_rows(np.array([[2.0, 0.0], [2.0, 0.3]])).tolist() == [True, False]

    def test_obstacle_exclusion_rule(self):
        obs = ObstacleSet(np.array([0.0, 3.0]), 1.0)
        rows = np.array([[1.0, 3.0, 0.0], [0.5, 3.0, 0.0]])
        assert obs.admits_rows(rows).tolist() == [True, False]  # the boundary counts as clear

    @pytest.mark.parametrize("axes", [(0, 3), (0, 7), (-1, 0), (1, 1)])
    def test_constraint_spec_rejects_obstacle_axes_outside_the_state(self, wmr5, axes):
        box = wmr5.constraints.state_box  # three states
        ConstraintSpec(box, wmr5.constraints.input_box, (ObstacleSet([0.0, 3.0], 1.0, (2, 0)),))
        with pytest.raises(ContractViolationError, match="axes"):
            ConstraintSpec(box, wmr5.constraints.input_box,
                           (ObstacleSet(np.array([0.0, 3.0]), 1.0, axes),))

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
        # Malformed arguments raise the typed error, naming the argument.
        eye, ref = (np.eye(2),) * 2, (np.zeros(2), np.zeros(1))
        for args, name in [(((np.array(1.0),) * 2, ([[1.0]],) * 2, np.eye(2), ref),
                            "stage_state_weights[0]"),
                           ((5, ([[1.0]],) * 2, np.eye(2), ref), "stage_state_weights"),
                           ((eye, 5, np.eye(2), ref), "stage_input_weights"),
                           ((eye, ([[1.0]],) * 2, np.eye(2), (np.zeros(2),)), "reference"),
                           ((eye, ([[1.0]],) * 3, np.eye(2), ref), "equal counts, got 2 and 3"),
                           (((), (), np.eye(2), ref), "stage_state_weights must be a nonempty")]:
            with pytest.raises(ContractViolationError, match=re.escape(name)):
                CostSpec(*args)

    @pytest.mark.parametrize("which,bad,message", [
        ("Q", np.diag([1.0, -1.0]), "stage_state_weights[3] must be positive semidefinite"),
        ("Q", np.array([[1.0, 0.5], [0.0, 1.0]]), "stage_state_weights[3] must be symmetric"),
        ("Q", np.array([[1.0, np.nan], [np.nan, 1.0]]), "stage_state_weights[3] must be finite"),
        ("Q", np.eye(3), "stage_state_weights[3] must have shape (2, 2)"),
        ("R", np.array([[0.0]]), "stage_input_weights[3] must be positive definite"),
    ], ids=["not-psd", "asymmetric", "not-finite", "wrong-shape", "r-not-pd"])
    def test_cost_spec_names_the_first_offending_stage_weight(self, which, bad, message):
        qs, rs = [np.eye(2)] * 6, [np.eye(1)] * 6
        stack = qs if which == "Q" else rs
        stack[3] = stack[5] = bad
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            CostSpec(qs, rs, np.eye(2), (np.zeros(2), np.zeros(1)))

    @pytest.mark.parametrize("where, weight, accepted", [
        ("Q", np.diag([1.0, -1e-12]), True), ("Q", np.diag([1.0, -1.1e-12]), False),
        ("Q", np.diag([1.0, 0.0]), True),
        ("R", [[5e-324]], True), ("R", [[0.0]], False),
        ("P", np.diag([1.0, 5e-324]), True), ("P", np.diag([1.0, 0.0]), False),
        ("S", np.diag([1.0, 5e-324]), True), ("S", np.diag([1.0, 0.0]), False),
    ] + [(where, [[1.0, gap], [0.0, 1.0]], gap == 1e-12)
         for where in "QPS" for gap in (1e-12, 2e-12)])
    def test_the_weight_rule_keeps_its_bounds(self, where, weight, accepted):
        # Q down to a least eigenvalue of -1e-12 inclusive; R, P and the
        # ellipsoid shape only above 0.0; asymmetry up to 1e-12 inclusive.
        build, name = {
            "Q": (lambda w: CostSpec.constant(w, [[1.0]], np.eye(2), 3), "stage_state_weights[0]"),
            "R": (lambda w: CostSpec.constant(np.eye(2), w, np.eye(2), 3),
                  "stage_input_weights[0]"),
            "P": (lambda w: CostSpec.constant(np.eye(2), [[1.0]], w, 3), "terminal weight"),
            "S": (lambda w: EllipsoidSet(np.zeros(2), w, 1.0), "ellipsoid shape"),
        }[where]
        if accepted:
            build(weight)
        else:
            with pytest.raises(ContractViolationError, match=re.escape(name)):
                build(weight)

    @pytest.mark.parametrize("plant", PLANT_IDS)
    def test_cost_spec_rebuilt_from_its_fields_prices_the_same(self, plant):
        cost = make_benchmark(plant, 5, None).cost
        n, m = cost.terminal_weight.shape[0], cost.reference[1].shape[0]
        assert cost.stage_state_weights.shape == (5, n, n)
        assert cost.stage_input_weights.shape == (5, m, m)
        with pytest.raises(ValueError):
            cost.stage_state_weights[0, 0, 0] = 1.0
        again = CostSpec(cost.stage_state_weights, cost.stage_input_weights,
                         cost.terminal_weight, cost.reference)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-5.0, 5.0, (6, 20, n))
        us = rng.uniform(-5.0, 5.0, (5, 20, m))
        assert again.fold(0, 0.0, xs, us).tobytes() == cost.fold(0, 0.0, xs, us).tobytes()

    def test_feasibility_report_consistency(self):
        from sampled_nmpc import FeasibilityReport
        with pytest.raises(ContractViolationError):
            FeasibilityReport(True, 3, "state-box")
