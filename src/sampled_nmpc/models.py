"""The three benchmark plants: a cart on a nonlinear spring, a bilinear
buck-boost power converter and a wheeled mobile robot, each with its published
parameters, constraint sets, cost weights and (where available) terminal
controller and terminal set.

Each plant is one builder (``_cart``, ``_buck``, ``_wmr``): it makes the
plant's model, boxes, obstacle, terminal set, cost, default start and
warm-start mode, and ``make_benchmark`` finds it in one table.  The terminal
set X_f, the terminal law and the cost reference are all centred on the
model's ``equilibrium``, the one operating point of the plant.

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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .core import (BoxSet, ConstraintSpec, CostSpec, EllipsoidSet, ObstacleSet, PlantModel,
                   _floats, _frozen, _integer, _quadratic_rows)
from .errors import ConfigError, ContractViolationError

__all__ = [
    "CartSpringParams",
    "BuckBoostParams",
    "WmrParams",
    "cart_spring_model",
    "buck_boost_model",
    "wmr_model",
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
BUCK_X_EQ = np.array([20.0, 0.5])  # published; the model computes its own (buck_equilibrium)
BUCK_U_EQ = np.array([0.81, 0.4])

WMR_Q = np.diag([1.0, 1.0, 0.5])
WMR_R = np.diag([0.1, 0.1])
WMR_TERMINAL_SCALE = 50.0

# The most floats that one allocation of a configured run may hold (2 GiB of
# float64): the cost weight stacks, N (n^2 + m^2), bounded in make_benchmark,
# and the solve tensors, R (N + 1)(n + m), and one oracle batch,
# _ORACLE_BATCH N (n + m), bounded when an ExperimentConfig is assembled.
_MAX_FLOATS = 2 ** 28


class _PlantParams:
    """The one rule for a plant parameter, in the API and in configs alike:
    each float field passes ``_floats`` (a finite number; no str, None or
    bool) and is kept as a Python float, and all of them are positive; else
    ConfigError, naming the field when it is no number."""

    def __post_init__(self):
        names = [f.name for f in fields(self) if isinstance(f.default, float)]
        for name in names:
            object.__setattr__(self, name, float(_floats(getattr(self, name), name, (), ConfigError)))
        if min(getattr(self, name) for name in names) <= 0:
            raise ConfigError(f"{self._plant} parameters must be positive")


@dataclass(frozen=True)
class CartSpringParams(_PlantParams):
    """Cart of mass ``mass`` on a state-dependent spring with viscous damping."""

    _plant = "cart-spring"
    ts: float = 0.4
    rho0: float = 0.33
    mass: float = 1.0
    damping: float = 1.1


@dataclass(frozen=True)
class BuckBoostParams(_PlantParams):
    """Converter electrical parameters; at these defaults the fixed point of
    the published duty-cycle pair is the published equilibrium state, up to
    rounding."""

    _plant = "buck-boost"
    r_l: float = 0.2
    c_f: float = 22e-6
    l_f: float = 220e-6
    ts: float = 10e-6
    v_s: float = 10.0
    r_h: float = 100.0


def _default_wmr_obstacle() -> ObstacleSet:
    # Invented benchmark geometry (the source task names no obstacle shape):
    # a unit disc centred between the start (0, 6) and the goal at the origin.
    return ObstacleSet(center=np.array([0.0, 3.0]), radius=1.0, axes=(0, 1))


@dataclass(frozen=True)
class WmrParams(_PlantParams):
    """Unicycle-kinematics robot: sampling period plus the obstacle to avoid."""

    _plant = "wmr"
    ts: float = 0.1
    obstacle: Optional[ObstacleSet] = field(default_factory=_default_wmr_obstacle)


# ---------------------------------------------------------------------------
# plant maps
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

    At the default parameters this is the published equilibrium state up to
    rounding, (20.000000000000004, 0.5000000000000001) against BUCK_X_EQ's
    (20.0, 0.5); overriding v_s, r_l or r_h moves it accordingly.
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


def calibrate_buck_terminal_level(p: BuckBoostParams = BuckBoostParams(),
                                  boundary_points: int = 10_000,
                                  bisection_steps: int = 40) -> float:
    """Largest ellipsoid level (decade scan, then bisection) whose boundary
    points around the model's equilibrium all stay in the state box, map to
    admissible inputs under the printed feedback gain, and step back inside
    the set without increasing the quadratic value.  Reproduces the shipped
    BUCK_TERMINAL_LEVEL constant.
    """
    count = _integer(boundary_points, "boundary_points", 1)
    steps = _integer(bisection_steps, "bisection_steps", 0)
    model, constraints, *_ = _buck({**asdict(p), "terminal_level": None}, 1)
    x_eq, u_eq = model.equilibrium
    to_boundary = np.linalg.inv(np.linalg.cholesky(BUCK_P).T)
    angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def level_ok(level: float) -> bool:
        xs = x_eq + math.sqrt(level) * circle @ to_boundary.T
        us = u_eq + (xs - x_eq) @ BUCK_K.T
        if not (constraints.state_box.contains_rows(xs).all()
                and constraints.input_box.contains_rows(us).all()):
            return False
        nxt = model.batch_step(xs, us)
        v_now = _quadratic_rows(xs - x_eq, BUCK_P)
        v_nxt = _quadratic_rows(nxt - x_eq, BUCK_P)
        return bool(np.all(v_nxt <= level) and np.all(v_nxt <= v_now))

    # The scan breaks by 1e4 at the latest: that level's set spans about
    # +-18 A of i_L around the centre, far outside the [0, 3] A box.
    lo = hi = None
    for expo in range(-4, 5):
        level = 10.0 ** expo
        if not level_ok(level):
            hi = level
            break
        lo = level
    if lo is None:
        raise ConfigError("no valid terminal level found in the scanned decades")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if level_ok(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# one builder per plant, and the table make_benchmark reads
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Benchmark:
    """Everything an experiment needs for one plant at one horizon."""

    plant_id: str
    model: PlantModel
    constraints: ConstraintSpec
    cost: CostSpec
    default_x0: np.ndarray
    default_warm_start_mode: str


def _terminal_level(overrides: dict, default: Optional[float]) -> Optional[float]:
    """The popped ``terminal_level`` (``default`` when absent): a positive
    number, or None."""
    level = overrides.pop("terminal_level", default)
    if level is None:
        return None
    level = float(_floats(level, "terminal_level", (), ConfigError))
    if level <= 0:
        raise ConfigError(f"terminal_level must be positive, got {level!r}")
    return level


def _cart(overrides: dict, horizon) -> tuple:
    level = _terminal_level(overrides, CART_TERMINAL_LEVEL)
    model = cart_spring_model(_apply_params(CartSpringParams(), overrides))
    constraints = ConstraintSpec(
        BoxSet(np.array([-2.65, -np.inf]), np.array([2.65, np.inf])),
        BoxSet(np.array([-4.5]), np.array([4.5])), (),
        None if level is None else EllipsoidSet(model.equilibrium[0], CART_P, level))
    cost = CostSpec.constant(CART_Q, CART_R, CART_P, _stages(horizon, model), model.equilibrium)
    return model, constraints, cost, np.array([-2.5, 3.0]), "terminal-controller"


def _buck(overrides: dict, horizon) -> tuple:
    # Default runs without the terminal constraint: the calibrated stand-in
    # ellipsoid is too small to be reachable within the benchmark horizon
    # from the benchmark start, so enforcing it leaves no feasible plan.
    # Pass terminal_level explicitly to enforce it.
    level = _terminal_level(overrides, None)
    model = buck_boost_model(_apply_params(BuckBoostParams(), overrides))
    x_eq = model.equilibrium[0]
    constraints = ConstraintSpec(
        BoxSet(np.array([-0.1, 0.0]), np.array([22.5, 3.0])), BoxSet(np.zeros(2), np.ones(2)), (),
        None if level is None else EllipsoidSet(x_eq, BUCK_P, level))
    cost = CostSpec.constant(BUCK_Q, BUCK_R, BUCK_P, _stages(horizon, model), model.equilibrium)
    return model, constraints, cost, x_eq + np.array([1.0, 2.0]), "feasible-sample"


def _wmr(overrides: dict, horizon) -> tuple:
    spec = overrides.get("obstacle")
    if spec is not None and not (isinstance(spec, dict) and {"center", "radius"}
                                 <= spec.keys() <= {"center", "radius", "axes"}):
        raise ConfigError("obstacle must be null or {center, radius} with optional axes, "
                          f"got {spec!r}")
    try:  # the obstacle's own rules, then its axes against the state: a config's fault here
        if spec is not None:
            overrides["obstacle"] = ObstacleSet(**spec)
        params = _apply_params(WmrParams(), overrides)
        constraints = ConstraintSpec(
            BoxSet(np.full(3, -np.inf), np.full(3, np.inf)),
            BoxSet(np.array([-0.47, -3.77]), np.array([0.47, 3.77])),
            () if params.obstacle is None else (params.obstacle,))
    except ContractViolationError as exc:
        raise ConfigError(str(exc)) from None
    model = wmr_model(params)
    # First stage carries no state penalty; later stages double each step and
    # the terminal weight extends the doubling once more, scaled up, so it
    # stays finite while 2^(N - 1) <= max / 50.
    horizon = _stages(horizon, model, math.frexp(sys.float_info.max / WMR_TERMINAL_SCALE)[1])
    qs = [np.zeros((3, 3))] + [(2.0 ** (j - 1)) * WMR_Q for j in range(1, horizon)]
    cost = CostSpec(tuple(qs), (WMR_R,) * horizon,
                    WMR_TERMINAL_SCALE * (2.0 ** (horizon - 1)) * WMR_Q, model.equilibrium)
    return model, constraints, cost, np.array([0.0, 6.0, 0.0]), "feasible-sample"


# Each builder takes the overrides, which it consumes, and the horizon, and
# returns the Benchmark fields after plant_id.
_PLANTS = {"cart-spring": _cart, "buck-boost": _buck, "wmr": _wmr}
PLANT_IDS = tuple(_PLANTS)


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
    if plant_id not in PLANT_IDS:  # a tuple: an id that is no string is unknown, not a TypeError
        raise ConfigError(f"unknown plant {plant_id!r}")
    model, constraints, cost, x0, mode = _PLANTS[plant_id](dict(overrides or {}), horizon)
    return Benchmark(plant_id, model, constraints, cost, _frozen(x0), mode)


def _stages(horizon, model: PlantModel, longest: float = math.inf) -> int:
    """The horizon, if it is an integer from 1 to ``longest`` whose (N, n, n)
    and (N, m, m) cost weight stacks hold at most ``_MAX_FLOATS`` floats;
    else ConfigError naming it."""
    most = min(longest, _MAX_FLOATS // (model.n ** 2 + model.m ** 2))
    return _integer(horizon, "horizon", 1, most, ConfigError)


def _apply_params(params, overrides: dict):
    """``params`` with the overrides, which must name its fields; its class
    checks their values."""
    if unknown := set(overrides) - {f.name for f in fields(params)}:
        raise ConfigError(f"unknown model overrides for {type(params).__name__}: {sorted(unknown)}")
    return replace(params, **overrides)
