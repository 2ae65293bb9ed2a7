"""The three benchmark plants: a cart on a nonlinear spring, a bilinear
buck-boost power converter and a wheeled mobile robot, each with its published
parameters, constraint sets, cost weights and (where available) terminal
controller and terminal set.

Each plant's map is its ``batch_step``: parameter constants are computed once
per model, and a call writes each successor column into one fresh (B, n) array.
The constants are 0-d float64 arrays, not Python floats: a ufunc converts a
Python-float operand to a numpy scalar on every call, which costs more than a
64-row multiply, while a 0-d array operand is used as it is.  Both give the
same IEEE products.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .core import (BoxSet, ConstraintSpec, CostSpec, EllipsoidSet, ObstacleSet, PlantModel,
                   _floats, _integer, _quadratic_rows)
from .errors import ConfigError

__all__ = [
    "CartSpringParams",
    "BuckBoostParams",
    "WmrParams",
    "cart_spring_model",
    "buck_boost_model",
    "wmr_model",
    "terminal_set",
    "calibrate_buck_terminal_level",
    "Benchmark",
    "make_benchmark",
    "PLANT_IDS",
    "CART_TERMINAL_LEVEL",
    "BUCK_TERMINAL_LEVEL",
    "CONVERGENCE_TOL_INF",
]

# Cart terminal-cost sublevel radius and the benchmark convergence tolerance
# used by the closed-loop regression checks.
CART_TERMINAL_LEVEL = 4.7
CONVERGENCE_TOL_INF = 0.05

# Largest terminal-cost sublevel of the converter that stays inside the state
# box and is invariant with admissible inputs under the printed feedback gain;
# reproduced by calibrate_buck_terminal_level (the binding constraint is the
# inductor-current floor i_L >= 0).
BUCK_TERMINAL_LEVEL = 7.543

CART_P = np.array([[7.0814, 3.3708], [3.3708, 4.2998]])
CART_Q = np.eye(2)
CART_R = np.array([[1.0]])
CART_KF_GAIN = np.array([0.8783, 1.1204])

BUCK_P = np.array([[46.6617, 42.8039], [42.8039, 69.4392]])
BUCK_Q = np.diag([1.0, 2.0])
BUCK_R = np.eye(2)
BUCK_K = np.array([[-0.0014, -0.3246], [0.0001, -0.0055]])
BUCK_X_EQ = np.array([20.0, 0.5])
BUCK_U_EQ = np.array([0.81, 0.4])

WMR_Q = np.diag([1.0, 1.0, 0.5])
WMR_R = np.diag([0.1, 0.1])
WMR_TERMINAL_SCALE = 50.0

# The most floats that one allocation of a configured run may hold (2 GiB of
# float64): the cost weight stacks, N (n^2 + m^2), bounded in make_benchmark,
# and the solve tensors, R (N + 1)(n + m), and one oracle batch,
# _ORACLE_BATCH N (n + m), bounded when an ExperimentConfig is assembled.
_MAX_FLOATS = 2 ** 28


@dataclass(frozen=True)
class CartSpringParams:
    """Cart of mass ``mass`` on a state-dependent spring with viscous damping."""

    ts: float = 0.4
    rho0: float = 0.33
    mass: float = 1.0
    damping: float = 1.1

    def __post_init__(self):
        if min(self.ts, self.rho0, self.mass, self.damping) <= 0:
            raise ConfigError("cart-spring parameters must be positive")


@dataclass(frozen=True)
class BuckBoostParams:
    """Converter electrical parameters; source voltage and load resistance are
    fixed by requiring the published equilibrium pair to be a fixed point."""

    r_l: float = 0.2
    c_f: float = 22e-6
    l_f: float = 220e-6
    ts: float = 10e-6
    v_s: float = 10.0
    r_h: float = 100.0

    def __post_init__(self):
        if min(self.r_l, self.c_f, self.l_f, self.ts, self.v_s, self.r_h) <= 0:
            raise ConfigError("buck-boost parameters must be positive")


def _default_wmr_obstacle() -> ObstacleSet:
    # Invented benchmark geometry (the source task names no obstacle shape):
    # a unit disc centred between the start (0, 6) and the goal at the origin.
    return ObstacleSet(center=np.array([0.0, 3.0]), radius=1.0, axes=(0, 1))


@dataclass(frozen=True)
class WmrParams:
    """Unicycle-kinematics robot: sampling period plus the obstacle to avoid."""

    ts: float = 0.1
    obstacle: Optional[ObstacleSet] = field(default_factory=_default_wmr_obstacle)

    def __post_init__(self):
        if self.ts <= 0:
            raise ConfigError("wmr sampling period must be positive")


# ---------------------------------------------------------------------------
# plant bundles
# ---------------------------------------------------------------------------

def _check_finite(p, *constants: float) -> None:
    """ConfigError naming the parameters of ``p`` that differ from their
    defaults, when a constant derived from them is not finite."""
    if not all(map(math.isfinite, constants)):
        changed = [f.name for f in fields(p) if getattr(p, f.name) != f.default]
        raise ConfigError(f"{type(p).__name__} {changed} give a non-finite model constant "
                          "or equilibrium")


def _constants(*values: float) -> tuple[np.ndarray, ...]:
    """Each model constant as a 0-d float64 array (see the module docstring)."""
    return tuple(np.array(v, dtype=np.float64) for v in values)


def cart_spring_model(p: CartSpringParams = CartSpringParams()) -> PlantModel:
    k_spring, k_damp, k_in = p.ts * (p.rho0 / p.mass), p.ts * (p.damping / p.mass), p.ts / p.mass
    _check_finite(p, k_spring, k_damp, k_in)
    ts, k_spring, k_damp, k_in = _constants(p.ts, k_spring, k_damp, k_in)

    def batch_step(xs, us):
        x1, x2 = xs[:, 0], xs[:, 1]
        out = np.empty((xs.shape[0], 2))
        out[:, 0] = x1 + ts * x2
        out[:, 1] = x2 - k_spring * np.exp(-x1) * x1 - k_damp * x2 + k_in * us[:, 0]
        return out

    zero_input = np.zeros((1, 1))

    def terminal_law(x):
        # The feedback acts on the autonomous part of the map: its row at u = 0.
        drift = batch_step(x[np.newaxis], zero_input)[0]
        return np.array([-float(CART_KF_GAIN @ drift)])

    return PlantModel(n=2, m=1, batch_step=batch_step,
                      equilibrium=(np.zeros(2), np.zeros(1)),
                      terminal_law=terminal_law, name="cart-spring")


def buck_equilibrium(p: BuckBoostParams = BuckBoostParams()) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the converter at the published duty-cycle pair.

    At the default parameters this reproduces the published equilibrium state
    exactly; overriding v_s or r_h moves it accordingly.
    """
    d1, d2 = BUCK_U_EQ.tolist()  # Python floats: an overflow gives inf, not a warning
    i_l = p.v_s * d1 / (p.r_l + p.r_h * d2 * d2)
    v_c = p.r_h * d2 * i_l
    return np.array([v_c, i_l]), BUCK_U_EQ.copy()


def buck_boost_model(p: BuckBoostParams = BuckBoostParams()) -> PlantModel:
    # x+ = A x + B u + (x'C1 u, x'C2 u): each output has one term per matrix.
    a_vv, a_ii = 1.0 + p.ts * (-1.0 / (p.r_h * p.c_f)), 1.0 + p.ts * (-p.r_l / p.l_f)
    b_i, c1_v, c2_i = p.ts * (p.v_s / p.l_f), p.ts * (1.0 / p.c_f), p.ts * (-1.0 / p.l_f)
    x_eq, u_eq = buck_equilibrium(p)
    _check_finite(p, a_vv, a_ii, b_i, c1_v, c2_i, *x_eq)
    a_vv, a_ii, b_i, c1_v, c2_i = _constants(a_vv, a_ii, b_i, c1_v, c2_i)

    def batch_step(xs, us):
        v_c, i_l, d2 = xs[:, 0], xs[:, 1], us[:, 1]
        out = np.empty((xs.shape[0], 2))
        out[:, 0] = a_vv * v_c + i_l * c1_v * d2
        out[:, 1] = a_ii * i_l + b_i * us[:, 0] + v_c * c2_i * d2
        out += 0.0  # -0.0 becomes +0.0, as the matrix form's zero-started sums give
        return out

    def terminal_law(x):
        return u_eq + BUCK_K @ (x - x_eq)

    return PlantModel(n=2, m=2, batch_step=batch_step,
                      equilibrium=(x_eq, u_eq),
                      terminal_law=terminal_law, name="buck-boost")


def wmr_model(p: WmrParams = WmrParams()) -> PlantModel:
    ts, = _constants(p.ts)

    def batch_step(xs, us):
        heading, speed = xs[:, 2], us[:, 0]
        out = np.empty((xs.shape[0], 3))
        out[:, 0] = xs[:, 0] + speed * np.cos(heading) * ts
        out[:, 1] = xs[:, 1] + speed * np.sin(heading) * ts
        out[:, 2] = heading + us[:, 1] * ts
        return out

    return PlantModel(n=3, m=2, batch_step=batch_step,
                      equilibrium=(np.zeros(3), np.zeros(2)),
                      terminal_law=None, name="wmr")


def terminal_set(plant: str, level: Optional[float] = None) -> Optional[EllipsoidSet]:
    """Terminal constraint set of the named plant (None for the robot)."""
    if plant == "cart-spring":
        return EllipsoidSet(np.zeros(2), CART_P, CART_TERMINAL_LEVEL if level is None else level)
    if plant == "buck-boost":
        return EllipsoidSet(BUCK_X_EQ, BUCK_P, BUCK_TERMINAL_LEVEL if level is None else level)
    if plant == "wmr":
        return None
    raise ConfigError(f"unknown plant {plant!r}")


def calibrate_buck_terminal_level(p: BuckBoostParams = BuckBoostParams(),
                                  boundary_points: int = 10_000,
                                  bisection_steps: int = 40) -> float:
    """Largest ellipsoid level (decade scan, then bisection) whose boundary
    points all stay in the state box, map to admissible inputs under the
    printed feedback gain, and step back inside the set without increasing the
    quadratic value.  Reproduces the shipped BUCK_TERMINAL_LEVEL constant.
    """
    model, constraints = buck_boost_model(p), _buck_constraints(None)
    to_boundary = np.linalg.inv(np.linalg.cholesky(BUCK_P).T)
    angles = np.linspace(0.0, 2.0 * math.pi, boundary_points, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def level_ok(level: float) -> bool:
        xs = BUCK_X_EQ + math.sqrt(level) * circle @ to_boundary.T
        us = BUCK_U_EQ + (xs - BUCK_X_EQ) @ BUCK_K.T
        if not (constraints.state_box.contains_rows(xs).all()
                and constraints.input_box.contains_rows(us).all()):
            return False
        nxt = model.batch_step(xs, us)
        v_now = _quadratic_rows(xs - BUCK_X_EQ, BUCK_P)
        v_nxt = _quadratic_rows(nxt - BUCK_X_EQ, BUCK_P)
        return bool(np.all(v_nxt <= level) and np.all(v_nxt <= v_now))

    # The scan breaks by 1e4 at the latest: that level's set spans about
    # +-18 A of i_L around the fixed centre, far outside the [0, 3] A box.
    lo = hi = None
    for expo in range(-4, 5):
        level = 10.0 ** expo
        if not level_ok(level):
            hi = level
            break
        lo = level
    if lo is None:
        raise ConfigError("no valid terminal level found in the scanned decades")
    for _ in range(bisection_steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if level_ok(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# constraint and cost builders, experiment defaults
# ---------------------------------------------------------------------------

def _cart_constraints(terminal_level: Optional[float]) -> ConstraintSpec:
    state_box = BoxSet(np.array([-2.65, -np.inf]), np.array([2.65, np.inf]))
    input_box = BoxSet(np.array([-4.5]), np.array([4.5]))
    terminal = None if terminal_level is None else terminal_set("cart-spring", terminal_level)
    return ConstraintSpec(state_box, input_box, (), terminal)


def _buck_constraints(terminal_level: Optional[float]) -> ConstraintSpec:
    state_box = BoxSet(np.array([-0.1, 0.0]), np.array([22.5, 3.0]))
    input_box = BoxSet(np.zeros(2), np.ones(2))
    terminal = None if terminal_level is None else terminal_set("buck-boost", terminal_level)
    return ConstraintSpec(state_box, input_box, (), terminal)


def _wmr_constraints(obstacle: Optional[ObstacleSet]) -> ConstraintSpec:
    state_box = BoxSet(np.full(3, -np.inf), np.full(3, np.inf))
    input_box = BoxSet(np.array([-0.47, -3.77]), np.array([0.47, 3.77]))
    obstacles = () if obstacle is None else (obstacle,)
    return ConstraintSpec(state_box, input_box, obstacles, None)


def _cart_cost(horizon: int) -> CostSpec:
    return CostSpec.constant(CART_Q, CART_R, CART_P, horizon)


def _buck_cost(horizon: int, p: BuckBoostParams) -> CostSpec:
    return CostSpec.constant(BUCK_Q, BUCK_R, BUCK_P, horizon,
                             reference=buck_equilibrium(p))


def _wmr_cost(horizon: int) -> CostSpec:
    # First stage carries no state penalty; later stages double each step and
    # the terminal weight extends the doubling once more, scaled up.
    qs = [np.zeros((3, 3))]
    qs += [(2.0 ** (j - 1)) * WMR_Q for j in range(1, horizon)]
    rs = [WMR_R] * horizon
    p = WMR_TERMINAL_SCALE * (2.0 ** (horizon - 1)) * WMR_Q
    return CostSpec(tuple(qs), tuple(rs), p, (np.zeros(3), np.zeros(2)))


@dataclass(frozen=True)
class Benchmark:
    """Everything an experiment needs for one plant at one horizon."""

    plant_id: str
    model: PlantModel
    constraints: ConstraintSpec
    cost: CostSpec
    default_x0: np.ndarray
    default_warm_start_mode: str


def make_benchmark(plant_id: str, horizon: int, overrides: Optional[dict] = None) -> Benchmark:
    """Assemble a plant bundle, applying plant-specific parameter overrides.

    Recognized override keys: any params field of the plant (a number), plus
    ``terminal_level`` (a number, or null to drop the terminal constraint) and,
    for the robot, ``obstacle`` ({center: [a, b], radius: r, axes: [i, j]}).
    The horizon is bounded so that the cost weight stacks hold at most
    ``_MAX_FLOATS`` floats, and on the robot so that its terminal weight
    50 * 2^(N - 1) stays finite (N <= 1019).
    """
    if not isinstance(overrides, (dict, type(None))):
        raise ConfigError(f"model_overrides must be a JSON object (a dict), got {overrides!r}")
    overrides = dict(overrides or {})

    def pop_terminal(default):
        level = overrides.pop("terminal_level", default)
        return None if level is None else float(_floats(level, "terminal_level", (), ConfigError))

    if plant_id == "cart-spring":
        level = pop_terminal(CART_TERMINAL_LEVEL)
        model = cart_spring_model(_apply_params(CartSpringParams(), overrides))
        return Benchmark(plant_id, model, _cart_constraints(level),
                         _cart_cost(_stages(horizon, model)), np.array([-2.5, 3.0]),
                         "terminal-controller")
    if plant_id == "buck-boost":
        # Default runs without the terminal constraint: the calibrated
        # stand-in ellipsoid is too small to be reachable within the
        # benchmark horizon from the benchmark start, so enforcing it leaves
        # no feasible plan.  Pass terminal_level explicitly to enforce it.
        level = pop_terminal(None)
        params = _apply_params(BuckBoostParams(), overrides)
        model = buck_boost_model(params)
        return Benchmark(plant_id, model, _buck_constraints(level),
                         _buck_cost(_stages(horizon, model), params),
                         model.equilibrium[0] + np.array([1.0, 2.0]), "feasible-sample")
    if plant_id == "wmr":
        obstacle = _default_wmr_obstacle()
        if "obstacle" in overrides:
            obstacle = _obstacle_override(overrides.pop("obstacle"), n=3)
        params = _apply_params(WmrParams(obstacle=obstacle), overrides)
        model = wmr_model(params)
        longest = math.frexp(sys.float_info.max / WMR_TERMINAL_SCALE)[1]  # 2^(N-1) <= max / 50
        return Benchmark(plant_id, model, _wmr_constraints(params.obstacle),
                         _wmr_cost(_stages(horizon, model, longest)), np.array([0.0, 6.0, 0.0]),
                         "feasible-sample")
    raise ConfigError(f"unknown plant {plant_id!r}")


def _stages(horizon, model: PlantModel, longest: float = math.inf) -> int:
    """The horizon, if it is an integer from 1 to ``longest`` whose (N, n, n)
    and (N, m, m) cost weight stacks hold at most ``_MAX_FLOATS`` floats;
    else ConfigError naming it."""
    most = min(longest, _MAX_FLOATS // (model.n ** 2 + model.m ** 2))
    return _integer(horizon, "horizon", 1, most, ConfigError)


def _obstacle_override(spec, n: int) -> Optional[ObstacleSet]:
    """None for null, else the set of {center, radius} with optional axes, two
    distinct state indices in [0, n).  Any other shape or key raises ConfigError."""
    if spec is None:
        return None
    axes = spec.get("axes", (0, 1)) if isinstance(spec, dict) else None
    if not (axes is not None and {"center", "radius"} <= spec.keys() <= {"center", "radius", "axes"}
            and isinstance(axes, (list, tuple)) and len(axes) == 2
            and len({_integer(a, "obstacle axes", 0, n - 1, ConfigError) for a in axes}) == 2):
        raise ConfigError("obstacle must be null or {center, radius} with optional axes, two "
                          f"distinct integers in [0, {n}), got {spec!r}")
    return ObstacleSet(center=_floats(spec["center"], "obstacle center", (2,), ConfigError),
                       radius=float(_floats(spec["radius"], "obstacle radius", (), ConfigError)),
                       axes=tuple(axes))


def _apply_params(params, overrides: dict):
    unknown = set(overrides) - {f.name for f in fields(params)}
    if unknown:
        raise ConfigError(f"unknown model overrides for {type(params).__name__}: {sorted(unknown)}")
    values = {name: float(_floats(value, name, (), ConfigError))
              for name, value in overrides.items()}
    return replace(params, **values) if values else params


PLANT_IDS = ("cart-spring", "buck-boost", "wmr")
