import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_nmpc import (
    SamplerConfig,
    SamplerState,
    calibrate_buck_terminal_level,
    draw_samples,
    make_benchmark,
    terminal_set,
)
from sampled_nmpc.errors import ConfigError
from sampled_nmpc.models import (
    BUCK_TERMINAL_LEVEL,
    BUCK_U_EQ,
    BUCK_X_EQ,
    PLANT_IDS,
    BuckBoostParams,
    CART_P,
    CART_TERMINAL_LEVEL,
    CartSpringParams,
    WmrParams,
)

CART = make_benchmark("cart-spring", 1).model
BUCK = make_benchmark("buck-boost", 1).model
WMR = make_benchmark("wmr", 1).model

# Where random rows are drawn: each plant's state box where it is bounded,
# else a window wide enough to wrap the robot's heading more than once.
STATE_WINDOWS = {
    "cart-spring": ([-3.0, -6.0], [3.0, 6.0]),
    "buck-boost": ([-0.1, 0.0], [22.5, 3.0]),
    "wmr": ([-8.0, -8.0, -7.0], [8.0, 8.0, 7.0]),
}


def random_rows(bench, seed, count):
    rng = np.random.default_rng(seed)
    lo, hi = STATE_WINDOWS[bench.plant_id]
    box = bench.constraints.input_box
    return (rng.uniform(lo, hi, (count, bench.model.n)),
            rng.uniform(box.lower, box.upper, (count, bench.model.m)))


def halton_points_in_ellipsoid(ellipsoid, count):
    """Deterministic low-discrepancy fill of an ellipsoidal set."""
    box = ellipsoid.bounding_box()
    state = SamplerState(SamplerConfig(scheme="halton"))
    points = []
    while len(points) < count:
        for candidate in draw_samples(state, box, 256):
            if ellipsoid.contains(candidate):
                points.append(candidate)
                if len(points) == count:
                    break
    return np.array(points)


class TestCartSpring:
    def test_origin_is_equilibrium(self):
        assert np.array_equal(CART.step(np.zeros(2), np.zeros(1)), np.zeros(2))

    def test_spring_term_only(self):
        nxt = CART.step(np.array([1.0, 0.0]), np.zeros(1))
        assert nxt[0] == 1.0
        assert nxt[1] == -0.4 * 0.33 * math.exp(-1.0)

    def test_force_term_only(self):
        nxt = CART.step(np.zeros(2), np.array([1.0]))
        assert np.array_equal(nxt, np.array([0.0, 0.4]))

    def test_terminal_control_values(self):
        assert CART.terminal_law(np.zeros(2)) == pytest.approx([0.0])
        drift = np.array([1.0, -0.4 * 0.33 * math.exp(-1.0)])
        expected = -(0.8783 * drift[0] + 1.1204 * drift[1])
        assert CART.terminal_law(np.array([1.0, 0.0]))[0] == pytest.approx(expected)
        assert expected == pytest.approx(-0.8239, abs=5e-4)

    def test_terminal_set_membership(self):
        ell = terminal_set("cart-spring")
        assert ell.level == CART_TERMINAL_LEVEL
        assert ell.contains(np.zeros(2))
        # quadratic value at (1, 0) is the top-left weight, above the level
        assert ell.value(np.array([1.0, 0.0])) == CART_P[0, 0] > CART_TERMINAL_LEVEL
        assert not ell.contains(np.array([1.0, 0.0]))

    def test_terminal_set_sits_inside_position_bounds(self):
        half_width = math.sqrt(CART_TERMINAL_LEVEL * np.linalg.inv(CART_P)[0, 0])
        assert half_width <= 2.65

    def test_terminal_ingredients_on_sampled_set(self, cart10):
        # decrease of the terminal cost plus the stage cost, invariance of the
        # set, and admissibility of the feedback, on 1000 deterministic points
        model, cost = cart10.model, cart10.cost
        ell = terminal_set("cart-spring")
        points = halton_points_in_ellipsoid(ell, 1000)
        for x in points:
            u = model.terminal_law(x)
            assert abs(u[0]) <= 4.5
            x_next = model.step(x, u)
            assert ell.value(x_next) + cost.stage_cost(0, x, u) <= ell.value(x) + 1e-9
            assert ell.contains(x_next)

    def test_params_must_be_positive(self):
        with pytest.raises(ConfigError):
            CartSpringParams(ts=0.0)


class TestBuckBoost:
    def test_equilibrium_is_exact_fixed_point(self):
        nxt = BUCK.step(BUCK_X_EQ, BUCK_U_EQ)
        assert np.max(np.abs(nxt - BUCK_X_EQ)) < 1e-9

    def test_origin_maps_to_origin(self):
        assert np.array_equal(BUCK.step(np.zeros(2), np.zeros(2)), np.zeros(2))

    def test_linear_decay_of_inductor_current(self):
        p = BuckBoostParams()
        nxt = BUCK.step(np.array([0.0, 1.0]), np.zeros(2))
        assert nxt[0] == 0.0
        assert nxt[1] == pytest.approx(1.0 - p.ts * p.r_l / p.l_f, rel=1e-15)
        assert nxt[1] == pytest.approx(0.990909090909, rel=1e-9)

    def test_terminal_control_at_equilibrium(self):
        assert np.array_equal(BUCK.terminal_law(BUCK_X_EQ), BUCK_U_EQ)

    def test_terminal_set_centered_at_equilibrium(self):
        ell = terminal_set("buck-boost")
        assert ell.contains(BUCK_X_EQ)
        assert ell.level == BUCK_TERMINAL_LEVEL

    def test_shipped_level_matches_calibration(self):
        level = calibrate_buck_terminal_level(boundary_points=2000, bisection_steps=24)
        assert BUCK_TERMINAL_LEVEL <= level  # shipped constant is safely inside
        assert level == pytest.approx(7.5435, abs=2e-3)

    def test_quadratic_value_decreases_under_terminal_law(self):
        model = make_benchmark("buck-boost", 1, None).model
        ell = terminal_set("buck-boost")
        points = halton_points_in_ellipsoid(ell, 1000)
        for x in points:
            u = model.terminal_law(x)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)
            x_next = model.step(x, u)
            assert ell.value(x_next) <= ell.value(x)
            assert ell.contains(x_next)

    def test_terminal_set_sits_inside_state_box(self):
        box = terminal_set("buck-boost").bounding_box()
        assert box.lower[0] >= -0.1 and box.upper[0] <= 22.5
        assert box.lower[1] >= 0.0 and box.upper[1] <= 3.0


class TestWmr:
    def test_straight_drive(self):
        nxt = WMR.step(np.zeros(3), np.array([0.47, 0.0]))
        np.testing.assert_allclose(nxt, [0.047, 0.0, 0.0], atol=1e-15)

    def test_zero_velocity_is_fixed_point(self):
        x = np.array([1.2, -3.4, 0.7])
        assert np.array_equal(WMR.step(x, np.zeros(2)), x)

    def test_sideways_drive(self):
        nxt = WMR.step(np.array([0.0, 0.0, math.pi / 2]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(nxt, [0.0, 0.1, math.pi / 2], atol=1e-15)

    def test_no_terminal_law(self):
        assert WMR.terminal_law is None
        assert terminal_set("wmr") is None

    def test_params_validate(self):
        with pytest.raises(ConfigError):
            WmrParams(ts=-1.0)


class TestBenchmarkAssembly:
    def test_unknown_plant_rejected(self):
        with pytest.raises(ConfigError):
            make_benchmark("inverted-pendulum", 5, None)
        with pytest.raises(ConfigError):
            terminal_set("inverted-pendulum")

    def test_model_overrides_move_the_equilibrium(self):
        bench = make_benchmark("buck-boost", 5, {"v_s": 12.0})
        x_eq, u_eq = bench.model.equilibrium
        # d1*v_s / (R_L + R_H d2^2) with v_s = 12 and the published duty cycles
        assert x_eq == pytest.approx([24.0, 0.6])
        assert np.array_equal(u_eq, BUCK_U_EQ)
        nxt = bench.model.step(x_eq, u_eq)
        assert np.max(np.abs(nxt - x_eq)) < 1e-9

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            make_benchmark("cart-spring", 5, {"spring": 2.0})

    def test_cart_default_has_terminal_set(self):
        bench = make_benchmark("cart-spring", 5, None)
        assert bench.constraints.terminal is not None
        assert bench.constraints.terminal.level == CART_TERMINAL_LEVEL

    def test_terminal_level_override(self):
        bench = make_benchmark("cart-spring", 5, {"terminal_level": 1.0})
        assert bench.constraints.terminal.level == 1.0
        bench = make_benchmark("cart-spring", 5, {"terminal_level": None})
        assert bench.constraints.terminal is None
        bench = make_benchmark("buck-boost", 5, {"terminal_level": BUCK_TERMINAL_LEVEL})
        assert bench.constraints.terminal is not None

    def test_wmr_cost_schedule(self):
        bench = make_benchmark("wmr", 5, None)
        qs = bench.cost.stage_state_weights
        assert np.array_equal(qs[0], np.zeros((3, 3)))
        for j in range(1, 5):
            assert np.array_equal(qs[j], 2.0 ** (j - 1) * np.diag([1.0, 1.0, 0.5]))
        assert np.array_equal(bench.cost.terminal_weight,
                              50.0 * 2.0 ** 4 * np.diag([1.0, 1.0, 0.5]))

    def test_wmr_obstacle_override(self):
        bench = make_benchmark("wmr", 5, {"obstacle": {"center": [1.0, 1.0], "radius": 0.5}})
        assert not bench.constraints.state_ok(np.array([1.0, 1.2, 0.0]))
        bench = make_benchmark("wmr", 5, {"obstacle": None})
        assert bench.constraints.obstacles == ()

    @given(st.sampled_from(PLANT_IDS), st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_batch_step_agrees_with_step(self, plant, seed, count):
        # bit for bit: the solver steps candidates in batches, rollout row by row
        bench = make_benchmark(plant, 3, None)
        xs, us = random_rows(bench, seed, count)
        rows = np.array([bench.model.step(x, u) for x, u in zip(xs, us)])
        assert np.array_equal(bench.model.batch_step(xs, us), rows)

    @given(st.sampled_from(PLANT_IDS), st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
           st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_row_kernels_do_not_depend_on_the_batch(self, plant, seed, count, j):
        bench = make_benchmark(plant, 3, None)
        model, cost, cons = bench.model, bench.cost, bench.constraints
        xs, us = random_rows(bench, seed, count)
        kernels = {
            "batch_step": model.batch_step,
            "stage_costs": lambda x, u: cost.stage_costs(j, x, u),
            "terminal_costs": lambda x, u: cost.terminal_costs(x),
            "states_ok_rows": lambda x, u: cons.states_ok_rows(x),
            "terminal_ok_rows": lambda x, u: cons.terminal_ok_rows(x),
        }
        order = np.random.default_rng(seed).permutation(count)
        for name, kernel in kernels.items():
            whole = kernel(xs, us)
            assert np.array_equal(kernel(xs[order], us[order]), whole[order]), name
            for i in range(count):
                assert np.array_equal(kernel(xs[i:i + 1], us[i:i + 1])[0], whole[i]), name
        assert cost.stage_cost(j, xs[0], us[0]) == cost.stage_costs(j, xs, us)[0]
        assert cost.terminal_cost(xs[0]) == cost.terminal_costs(xs)[0]
        # one stage index per row prices each row as its own stage would
        stage_of_row = np.arange(count) % 3
        mixed = cost.stage_costs(stage_of_row, xs, us)
        for s in range(3):
            rows = stage_of_row == s
            assert np.array_equal(mixed[rows], cost.stage_costs(s, xs[rows], us[rows]))
