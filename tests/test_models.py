import math
from dataclasses import replace

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
)
from sampled_nmpc.core import BoxSet, _quadratic_rows
from sampled_nmpc import models
from sampled_nmpc.errors import ConfigError, ContractViolationError
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
CART_X_F = make_benchmark("cart-spring", 1).constraints.terminal
BUCK_X_F = make_benchmark("buck-boost", 1,
                          {"terminal_level": BUCK_TERMINAL_LEVEL}).constraints.terminal

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


def ellipsoid_value(ellipsoid, x):
    """(x - center)' shape (x - center), the quadratic the set's membership
    test compares with its level."""
    return float(_quadratic_rows(x[np.newaxis] - ellipsoid.center, ellipsoid.shape)[0])


def bounding_box(ellipsoid):
    """Tight axis-aligned box around an ellipsoidal set."""
    half = np.sqrt(ellipsoid.level * np.diag(np.linalg.inv(ellipsoid.shape)))
    return BoxSet(ellipsoid.center - half, ellipsoid.center + half)


def halton_points_in_ellipsoid(ellipsoid, count):
    """Deterministic low-discrepancy fill of an ellipsoidal set."""
    box = bounding_box(ellipsoid)
    state = SamplerState(SamplerConfig(scheme="halton"))
    points = []
    while len(points) < count:
        batch = draw_samples(state, box, 256)
        points.extend(batch[ellipsoid.contains_rows(batch)])
    return np.array(points[:count])


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
        ell = CART_X_F
        assert ell.level == CART_TERMINAL_LEVEL
        assert ell.contains_rows(np.zeros((1, 2)))[0]
        # quadratic value at (1, 0) is the top-left weight, above the level
        assert ellipsoid_value(ell, np.array([1.0, 0.0])) == CART_P[0, 0] > CART_TERMINAL_LEVEL
        assert not ell.contains_rows(np.array([[1.0, 0.0]]))[0]

    def test_terminal_set_sits_inside_position_bounds(self):
        half_width = math.sqrt(CART_TERMINAL_LEVEL * np.linalg.inv(CART_P)[0, 0])
        assert half_width <= 2.65

    def test_terminal_ingredients_on_sampled_set(self, cart10):
        # decrease of the terminal cost plus the stage cost, invariance of the
        # set, and admissibility of the feedback, on 1000 deterministic points
        model, cost = cart10.model, cart10.cost
        ell = cart10.constraints.terminal
        points = halton_points_in_ellipsoid(ell, 1000)
        for x in points:
            u = model.terminal_law(x)
            assert abs(u[0]) <= 4.5
            x_next = model.step(x, u)
            assert (ellipsoid_value(ell, x_next) + cost.stage_cost(0, x, u)
                    <= ellipsoid_value(ell, x) + 1e-9)
            assert ell.contains_rows(x_next[np.newaxis])[0]

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
        ell = BUCK_X_F
        assert ell.contains_rows(BUCK_X_EQ[np.newaxis])[0]
        assert ell.level == BUCK_TERMINAL_LEVEL

    @pytest.mark.parametrize("overrides", [{"terminal_level": BUCK_TERMINAL_LEVEL},
                                           {"v_s": 12.0, "terminal_level": 7.543}])
    def test_terminal_set_law_and_cost_share_the_equilibrium_bit_for_bit(self, overrides):
        # X_f, the terminal law and V_f are built around one operating point.
        bench = make_benchmark("buck-boost", 3, overrides)
        x_eq, u_eq = bench.model.equilibrium
        bits = x_eq.view(np.uint64)
        assert np.array_equal(bench.constraints.terminal.center.view(np.uint64), bits)
        assert np.array_equal(bench.cost.reference[0].view(np.uint64), bits)
        assert np.array_equal(bench.model.terminal_law(x_eq), u_eq)

    def test_shipped_level_matches_calibration(self):
        level = calibrate_buck_terminal_level(boundary_points=2000, bisection_steps=24)
        assert BUCK_TERMINAL_LEVEL <= level  # shipped constant is safely inside
        assert level == pytest.approx(7.5435, abs=2e-3)

    def test_quadratic_value_decreases_under_terminal_law(self):
        model = make_benchmark("buck-boost", 1, None).model
        ell = BUCK_X_F
        points = halton_points_in_ellipsoid(ell, 1000)
        for x in points:
            u = model.terminal_law(x)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)
            x_next = model.step(x, u)
            assert ellipsoid_value(ell, x_next) <= ellipsoid_value(ell, x)
            assert ell.contains_rows(x_next[np.newaxis])[0]

    def test_terminal_set_sits_inside_state_box(self):
        box = bounding_box(BUCK_X_F)
        assert box.lower[0] >= -0.1 and box.upper[0] <= 22.5
        assert box.lower[1] >= 0.0 and box.upper[1] <= 3.0

    @pytest.mark.parametrize("name", ["r_l", "c_f", "l_f", "ts", "v_s", "r_h"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_parameters_rejected(self, name, value):
        with pytest.raises(ConfigError, match="^buck-boost parameters must be positive$"):
            BuckBoostParams(**{name: value})

    @pytest.mark.parametrize("name, value", [("boundary_points", "x"), ("boundary_points", 0),
                                             ("bisection_steps", 2.5)])
    def test_calibration_counts_are_integers(self, name, value):
        with pytest.raises(ContractViolationError, match=f"^{name} must be an integer"):
            calibrate_buck_terminal_level(**{name: value})

    def test_calibration_without_a_valid_decade_fails_typed(self):
        # At ten times the default sampling period the printed gain raises
        # the quadratic value on the boundary of even the smallest scanned level.
        with pytest.raises(ConfigError,
                           match="^no valid terminal level found in the scanned decades$"):
            calibrate_buck_terminal_level(BuckBoostParams(ts=1e-4))


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
        assert make_benchmark("wmr", 1).constraints.terminal is None

    def test_params_validate(self):
        with pytest.raises(ConfigError):
            WmrParams(ts=-1.0)

    @pytest.mark.parametrize("ts", [math.nan, math.inf])
    def test_a_period_that_is_not_finite_is_refused(self, ts):
        # Refused by the parameters, before a model steps NaN or 0 * inf.
        with pytest.raises(ConfigError, match="^ts must be finite"):
            WmrParams(ts=ts)


class TestBenchmarkAssembly:
    def test_unknown_plant_rejected(self):
        with pytest.raises(ConfigError):
            make_benchmark("inverted-pendulum", 5, None)

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

    def test_overrides_must_be_a_dict(self):
        # dict() would read a list of pairs as overrides
        with pytest.raises(ConfigError, match="model_overrides"):
            make_benchmark("cart-spring", 3, [("ts", 0.5)])

    @pytest.mark.parametrize("plant, overrides", [
        ("cart-spring", {"ts": True}), ("cart-spring", {"mass": "1.0"}),
        ("cart-spring", {"terminal_level": True}), ("cart-spring", {"terminal_level": "4.7"}),
        ("buck-boost", {"v_s": [12.0]}), ("buck-boost", {"terminal_level": False}),
        ("wmr", {"ts": None}), ("wmr", {"ts": False}), ("cart-spring", {"ts": float("nan")}),
        ("cart-spring", {"ts": float("inf")}), ("buck-boost", {"v_s": -float("inf")}),
        ("cart-spring", {"terminal_level": float("nan")}),
        ("buck-boost", {"terminal_level": float("inf")})])
    def test_non_number_override_rejected(self, plant, overrides):
        name, = overrides
        with pytest.raises(ConfigError, match=name):
            make_benchmark(plant, 5, overrides)

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
        bench = make_benchmark("wmr", 5, {"obstacle": {"center": [1.0, 1.0], "radius": 0.5,
                                                       "axes": [1, 2]}})
        assert bench.constraints.obstacles[0].axes == (1, 2)

    @pytest.mark.parametrize("spec", [
        {"radius": 1.0}, {"center": [0.0, 3.0]}, 5, [0.0, 3.0],
        {"center": [0.0, 3.0], "radius": 1.0, "axes": [0]},
        {"center": [0.0, 3.0], "radius": 1.0, "axes": [0, 7]},
        {"center": [0.0, 3.0], "radius": 1.0, "axes": [-1, 0]},
        {"center": [0.0, 3.0], "radius": 1.0, "axes": [1, 1]},
        {"center": [0.0, 3.0], "radius": 1.0, "axes": [0.0, 1]},
        {"center": [0.0, 3.0], "radius": 1.0, "axes": "01"},
        {"center": [0.0, 3.0], "radius": 1.0, "size": 2.0},
        {"center": ["0", "3"], "radius": 1.0}, {"center": [0.0, 3.0], "radius": True},
        {"center": ["0", "3"], "radius": True}, {"center": "03", "radius": 1.0},
        {"center": [0.0, True], "radius": 1.0}, {"center": [0.0, 3.0], "radius": "1"},
        {"center": 3.0, "radius": 1.0}, {"center": [0.0, 3.0], "radius": [1.0]},
        {"center": [float("nan"), 3.0], "radius": 1.0},
        {"center": [0.0, 3.0], "radius": float("inf")}])
    def test_malformed_wmr_obstacle_rejected(self, spec):
        with pytest.raises(ConfigError, match="obstacle"):
            make_benchmark("wmr", 5, {"obstacle": spec})

    @pytest.mark.parametrize("horizon", [2.5, "3", True, 0, None,
                                         pytest.param(10 ** 400, id="10**400")])
    def test_malformed_horizon_rejected(self, horizon):
        with pytest.raises(ConfigError, match="horizon"):
            make_benchmark("cart-spring", horizon)

    def test_the_robot_horizon_ends_where_its_terminal_weight_is_finite(self):
        # The terminal weight is 50 * 2^(N - 1) * Q: finite up to N = 1019.
        # Tier-1 raises any RuntimeWarning, so 1019 builds without one.
        p = make_benchmark("wmr", 1019).cost.terminal_weight
        assert np.isfinite(p).all() and p[0, 0] == 50.0 * 2.0 ** 1018
        for horizon in (1020, 1024, 1025):
            with pytest.raises(ConfigError, match="horizon"):
                make_benchmark("wmr", horizon)

    @pytest.mark.parametrize("plant", PLANT_IDS)
    def test_the_cost_weight_stacks_are_bounded_by_the_size_limit(self, monkeypatch, plant):
        # N (n^2 + m^2) floats: a limit of ten stages' worth takes N = 10, not 11.
        model = make_benchmark(plant, 1).model
        monkeypatch.setattr(models, "_MAX_FLOATS", 10 * (model.n ** 2 + model.m ** 2))
        assert make_benchmark(plant, 10).cost.horizon == 10
        with pytest.raises(ConfigError, match="horizon"):
            make_benchmark(plant, 11)

    @pytest.mark.parametrize("plant, overrides", [
        ("buck-boost", {"ts": 1e308}), ("buck-boost", {"v_s": 1e308}),
        ("buck-boost", {"r_l": 1e308}), ("cart-spring", {"mass": 1e-320})])
    def test_an_override_giving_a_non_finite_constant_is_named(self, plant, overrides):
        # The time step, the equilibrium and the conductance terms overflow;
        # no RuntimeWarning escapes on the way (tier-1 raises them).
        name, = overrides
        with pytest.raises(ConfigError, match=name):
            make_benchmark(plant, 5, overrides)

    @given(st.sampled_from(PLANT_IDS), st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_batch_step_agrees_with_step(self, plant, seed, count):
        # bit for bit: the solver steps candidates in batches, rollout row by row
        bench = make_benchmark(plant, 3, None)
        xs, us = random_rows(bench, seed, count)
        rows = np.array([bench.model.step(x, u) for x, u in zip(xs, us)])
        assert np.array_equal(bench.model.batch_step(xs, us), rows)

    # Up to 1024 rows, the oracle's batch size, which is always tried.
    @given(st.sampled_from(PLANT_IDS), st.integers(0, 2 ** 32 - 1),
           st.just(1024) | st.integers(1, 1024), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_row_kernels_do_not_depend_on_the_batch(self, plant, seed, count, j):
        bench = make_benchmark(plant, 3, None)
        model, cost, cons = bench.model, bench.cost, bench.constraints
        xs, us = random_rows(bench, seed, count)
        kernels = {
            "batch_step": model.batch_step,
            # each row priced from stage j to the end, its state held throughout
            "fold": lambda x, u: cost.fold(j, 0.0, np.repeat(x[None], 4 - j, axis=0),
                                           np.repeat(u[None], 3 - j, axis=0)).T,
            "states_ok_rows": lambda x, u: cons.states_ok_rows(x),
            "terminal_ok_rows": lambda x, u: cons.terminal_ok_rows(x),
        }
        order = np.random.default_rng(seed).permutation(count)
        for name, kernel in kernels.items():
            whole = kernel(xs, us)
            assert np.array_equal(kernel(xs[order], us[order]), whole[order]), name
            for i in range(count):
                assert np.array_equal(kernel(xs[i:i + 1], us[i:i + 1])[0], whole[i]), name
        # The scalar costs are the one-row terms of a fold from 0.0.
        assert cost.stage_cost(j, xs[0], us[0]) == kernels["fold"](xs[:1], us[:1])[0, 1]
        assert cost.terminal_cost(xs[0]) == cost.fold(3, 0.0, xs[None, :1], us[:0, None])[1, 0]


# ---------------------------------------------------------------------------
# the plant maps against their matrix-and-stack formulas
# ---------------------------------------------------------------------------

def _buck_matrices(p):
    a = np.eye(2) + p.ts * np.array([[-1.0 / (p.r_h * p.c_f), 0.0], [0.0, -p.r_l / p.l_f]])
    b = p.ts * np.array([[0.0, 0.0], [p.v_s / p.l_f, 0.0]])
    c1 = p.ts * np.array([[0.0, 0.0], [0.0, 1.0 / p.c_f]])
    c2 = p.ts * np.array([[0.0, -1.0 / p.l_f], [0.0, 0.0]])
    return a, b, c1, c2


def stacked_batch_step(plant, p):
    """Each plant map as np.stack of temporaries (the converter as 2x2
    matrix products and an einsum): the reference the column-writing
    kernels must reproduce bit for bit."""
    if plant == "cart-spring":
        def batch_step(xs, us):
            x1, x2 = xs[:, 0], xs[:, 1]
            return np.stack([
                x1 + p.ts * x2,
                x2 - p.ts * (p.rho0 / p.mass) * np.exp(-x1) * x1
                - p.ts * (p.damping / p.mass) * x2 + (p.ts / p.mass) * us[:, 0],
            ], axis=1)
    elif plant == "buck-boost":
        a, b, c1, c2 = _buck_matrices(p)

        def batch_step(xs, us):
            bilinear = np.stack([xs @ c1, xs @ c2], axis=1)  # rows x'C1, x'C2 per item
            return xs @ a.T + us @ b.T + np.einsum("bij,bj->bi", bilinear, us)
    else:
        def batch_step(xs, us):
            return np.stack([
                xs[:, 0] + us[:, 0] * np.cos(xs[:, 2]) * p.ts,
                xs[:, 1] + us[:, 0] * np.sin(xs[:, 2]) * p.ts,
                xs[:, 2] + us[:, 1] * p.ts,
            ], axis=1)
    return batch_step


def scaled(default, low=0.5, high=2.0):
    return st.floats(low * default, high * default)


PARAM_OVERRIDES = {
    "cart-spring": st.fixed_dictionaries({}, optional={
        "ts": scaled(0.4), "rho0": scaled(0.33), "mass": scaled(1.0), "damping": scaled(1.1)}),
    "buck-boost": st.fixed_dictionaries({}, optional={
        "r_l": scaled(0.2), "c_f": scaled(22e-6), "l_f": scaled(220e-6), "ts": scaled(10e-6),
        "v_s": scaled(10.0), "r_h": scaled(100.0)}),
    "wmr": st.fixed_dictionaries({}, optional={"ts": scaled(0.1)}),
}
PARAMS = {"cart-spring": CartSpringParams, "buck-boost": BuckBoostParams, "wmr": WmrParams}


def rows_around(data, rng, lo, hi, count):
    """``count`` rows around the window [lo, hi], widened by a quarter of its
    width on each side.  The first few rows are drawn entry by entry from the
    window's own bounds, zeros of either sign and any float in the widened
    window, so that such entries of states and inputs meet in one row; the
    rest are uniform on the widened window."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    margin = 0.25 * (hi - lo)
    rows = rng.uniform(lo - margin, hi + margin, (count, lo.shape[0]))
    for row in range(data.draw(st.integers(0, min(count, 4)))):
        for col in range(lo.shape[0]):
            rows[row, col] = data.draw(
                st.sampled_from([lo[col], hi[col], 0.0, -0.0])
                | st.floats(lo[col] - margin[col], hi[col] + margin[col]))
    return rows


class TestBatchStepKernels:
    @given(st.sampled_from(PLANT_IDS), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 2, 64, 1024, 1100]) | st.integers(1, 1100),
           st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_column_kernels_equal_the_stacked_formulas(self, plant, seed, count, strided,
                                                        data):
        overrides = data.draw(PARAM_OVERRIDES[plant])
        bench = make_benchmark(plant, 1, overrides)
        model = bench.model
        reference = stacked_batch_step(plant, replace(PARAMS[plant](), **overrides))
        rng = np.random.default_rng(seed)
        xs = rows_around(data, rng, *STATE_WINDOWS[plant], count)
        box = bench.constraints.input_box
        us = rows_around(data, rng, box.lower, box.upper, count)
        if strided:  # as the oracle passes them: views into a wider array
            xs = np.repeat(xs, 2, axis=1)[:, ::2]
            us = np.repeat(us, 2, axis=1)[:, ::2]
        out = model.batch_step(xs, us)
        assert out.dtype == np.float64 and out.shape == (count, model.n)
        assert out.flags.c_contiguous and out.flags.owndata
        assert not np.shares_memory(out, xs) and not np.shares_memory(out, us)
        assert np.array_equal(out.view(np.uint64), reference(xs, us).view(np.uint64))

    def test_converter_zeros_are_positive(self):
        # the matrix products start their sums from +0.0, so no zero output
        # of the converter carries a minus sign
        xs = np.array([[-0.0, -1.0], [-0.0, -0.0], [0.0, 2.0]])
        us = np.array([[-0.0, 0.0], [-0.0, -0.0], [0.5, 0.0]])
        out = BUCK.batch_step(xs, us)
        assert np.array_equal(out.view(np.uint64),
                              stacked_batch_step("buck-boost", BuckBoostParams())(xs, us)
                              .view(np.uint64))
        assert not np.any(np.signbit(out[out == 0.0]))
