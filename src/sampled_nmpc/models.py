"""The three benchmark plants: a cart on a nonlinear spring, a bilinear
buck-boost power converter and a wheeled mobile robot, each with its published
parameters, constraint sets, cost weights and (where available) terminal
controller and terminal set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import (BoxSet, ConstraintSpec, CostSpec, EllipsoidSet, ObstacleSet, PlantModel,
                   _quadratic_rows)
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
# plant step maps
# ---------------------------------------------------------------------------

def _buck_matrices(p: BuckBoostParams):
    a = np.eye(2) + p.ts * np.array([[-1.0 / (p.r_h * p.c_f), 0.0], [0.0, -p.r_l / p.l_f]])
    b = p.ts * np.array([[0.0, 0.0], [p.v_s / p.l_f, 0.0]])
    c1 = p.ts * np.array([[0.0, 0.0], [0.0, 1.0 / p.c_f]])
    c2 = p.ts * np.array([[0.0, -1.0 / p.l_f], [0.0, 0.0]])
    return a, b, c1, c2


# ---------------------------------------------------------------------------
# plant bundles
# ---------------------------------------------------------------------------

def cart_spring_model(p: CartSpringParams = CartSpringParams()) -> PlantModel:
    def batch_step(xs, us):
        x1, x2 = xs[:, 0], xs[:, 1]
        return np.stack([
            x1 + p.ts * x2,
            x2 - p.ts * (p.rho0 / p.mass) * np.exp(-x1) * x1
            - p.ts * (p.damping / p.mass) * x2 + (p.ts / p.mass) * us[:, 0],
        ], axis=1)

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
    d1, d2 = BUCK_U_EQ
    i_l = p.v_s * d1 / (p.r_l + p.r_h * d2 * d2)
    v_c = p.r_h * d2 * i_l
    return np.array([v_c, i_l]), BUCK_U_EQ.copy()


def buck_boost_model(p: BuckBoostParams = BuckBoostParams()) -> PlantModel:
    a, b, c1, c2 = _buck_matrices(p)
    x_eq, u_eq = buck_equilibrium(p)

    def batch_step(xs, us):
        bilinear = np.stack([xs @ c1, xs @ c2], axis=1)  # rows x'C1, x'C2 per item
        return xs @ a.T + us @ b.T + np.einsum("bij,bj->bi", bilinear, us)

    def terminal_law(x):
        return u_eq + BUCK_K @ (x - x_eq)

    return PlantModel(n=2, m=2, batch_step=batch_step,
                      equilibrium=(x_eq, u_eq),
                      terminal_law=terminal_law, name="buck-boost")


def wmr_model(p: WmrParams = WmrParams()) -> PlantModel:
    def batch_step(xs, us):
        return np.stack([
            xs[:, 0] + us[:, 0] * np.cos(xs[:, 2]) * p.ts,
            xs[:, 1] + us[:, 0] * np.sin(xs[:, 2]) * p.ts,
            xs[:, 2] + us[:, 1] * p.ts,
        ], axis=1)

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
    model = buck_boost_model(p)
    box_lo = np.array([-0.1, 0.0])
    box_hi = np.array([22.5, 3.0])
    chol = np.linalg.cholesky(BUCK_P)
    to_boundary = np.linalg.inv(chol.T)
    angles = np.linspace(0.0, 2.0 * math.pi, boundary_points, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def level_ok(level: float) -> bool:
        xs = BUCK_X_EQ + math.sqrt(level) * circle @ to_boundary.T
        if not (np.all(xs >= box_lo) and np.all(xs <= box_hi)):
            return False
        us = BUCK_U_EQ + (xs - BUCK_X_EQ) @ BUCK_K.T
        if not (np.all(us >= 0.0) and np.all(us <= 1.0)):
            return False
        nxt = model.batch_step(xs, us)
        v_now = _quadratic_rows(xs - BUCK_X_EQ, BUCK_P)
        v_nxt = _quadratic_rows(nxt - BUCK_X_EQ, BUCK_P)
        return bool(np.all(v_nxt <= level) and np.all(v_nxt <= v_now))

    lo = None
    hi = None
    for expo in range(-4, 5):
        level = 10.0 ** expo
        if level_ok(level):
            lo = level
        else:
            hi = level
            break
    if lo is None:
        raise ConfigError("no valid terminal level found in the scanned decades")
    if hi is None:
        return lo
    for _ in range(bisection_steps):
        mid = 0.5 * (lo + hi)
        if level_ok(mid):
            lo = mid
        else:
            hi = mid
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
    default_samples: int
    default_steps: int


def make_benchmark(plant_id: str, horizon: int, overrides: Optional[dict] = None) -> Benchmark:
    """Assemble a plant bundle, applying plant-specific parameter overrides.

    Recognized override keys: any params field of the plant, plus
    ``terminal_level`` (number, or null to drop the terminal constraint) and,
    for the robot, ``obstacle`` ({center: [a, b], radius: r, axes: [i, j]}).
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    overrides = dict(overrides or {})

    def pop_terminal(default):
        return overrides.pop("terminal_level") if "terminal_level" in overrides else default

    if plant_id == "cart-spring":
        level = pop_terminal(CART_TERMINAL_LEVEL)
        params = _apply_params(CartSpringParams(), overrides)
        return Benchmark(plant_id, cart_spring_model(params), _cart_constraints(level),
                         _cart_cost(horizon), np.array([-2.5, 3.0]),
                         "terminal-controller", 10, 20)
    if plant_id == "buck-boost":
        # Default runs without the terminal constraint: the calibrated
        # stand-in ellipsoid is too small to be reachable within the
        # benchmark horizon from the benchmark start, so enforcing it leaves
        # no feasible plan.  Pass terminal_level explicitly to enforce it.
        level = pop_terminal(None)
        params = _apply_params(BuckBoostParams(), overrides)
        x_eq, _ = buck_equilibrium(params)
        return Benchmark(plant_id, buck_boost_model(params), _buck_constraints(level),
                         _buck_cost(horizon, params), x_eq + np.array([1.0, 2.0]),
                         "feasible-sample", 10, 100)
    if plant_id == "wmr":
        if "obstacle" in overrides:
            spec = overrides.pop("obstacle")
            obstacle = None if spec is None else ObstacleSet(
                center=np.asarray(spec["center"], dtype=np.float64),
                radius=float(spec["radius"]),
                axes=tuple(spec.get("axes", (0, 1))))
        else:
            obstacle = _default_wmr_obstacle()
        params = _apply_params(WmrParams(obstacle=obstacle), overrides)
        return Benchmark(plant_id, wmr_model(params), _wmr_constraints(params.obstacle),
                         _wmr_cost(horizon), np.array([0.0, 6.0, 0.0]),
                         "feasible-sample", 30, 400)
    raise ConfigError(f"unknown plant {plant_id!r}")


def _apply_params(params, overrides: dict):
    fields = {f for f in params.__dataclass_fields__}
    unknown = set(overrides) - fields
    if unknown:
        raise ConfigError(f"unknown model overrides for {type(params).__name__}: {sorted(unknown)}")
    return replace(params, **overrides) if overrides else params


PLANT_IDS = ("cart-spring", "buck-boost", "wmr")
