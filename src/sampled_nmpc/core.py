"""Domain types and primitive operations shared by the solver, models and benchmarks.

Conventions: states and inputs are 1-D float64 numpy arrays; a plan stacks N
inputs into an (N, m) array; a trajectory stacks N+1 states into an (N+1, n)
array where row i is the predicted state i steps ahead.  Set membership uses
closed inequalities with no floating tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolationError

__all__ = [
    "Plan",
    "Trajectory",
    "PlantModel",
    "BoxSet",
    "EllipsoidSet",
    "ObstacleSet",
    "ConstraintSpec",
    "CostSpec",
    "FeasibilityReport",
    "as_vector",
    "rollout",
    "evaluate_cost",
    "check_feasible",
    "shift_plan",
]

_SYM_TOL = 1e-12
_EQUILIBRIUM_TOL = 1e-9


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally enforcing its length."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolationError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ContractViolationError(f"{name} must have length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError(f"{name} must be finite, got {arr}")
    return arr


def _as_matrix(m, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (rows, cols):
        raise ContractViolationError(f"{name} must have shape ({rows}, {cols}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError(f"{name} must be finite")
    return arr


def _check_symmetric(m: np.ndarray, name: str) -> None:
    if not np.all(np.abs(m - m.T) <= _SYM_TOL):
        raise ContractViolationError(f"{name} must be symmetric to {_SYM_TOL}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _quadratic_rows(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d_b' W_b d_b for each row b of a (B, k) array, where W is one (k, k)
    weight shared by all rows or a (B, k, k) stack of per-row weights.

    A row's value depends only on that row and on which of the two forms the
    caller uses, not on the batch size or the row's position (an einsum
    contraction does not have this property), so a one-row call gives the
    same bits as the row of a batched call.
    """
    dw = d @ w if w.ndim == 2 else (d[:, np.newaxis] @ w)[:, 0]
    return (dw * d).sum(axis=1)


@dataclass(frozen=True)
class Plan:
    """An ordered sequence of N control inputs, stored as an (N, m) array."""

    inputs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.inputs, dtype=np.float64)
        if arr.ndim == 1:  # allow a list of scalars for m == 1
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ContractViolationError(f"plan must stack N >= 1 inputs, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractViolationError("plan entries must be finite")
        object.__setattr__(self, "inputs", _frozen(arr.copy()))

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def __len__(self) -> int:
        return self.horizon

    def __getitem__(self, i: int) -> np.ndarray:
        return self.inputs[i]


@dataclass(frozen=True)
class Trajectory:
    """Predicted states along a plan: N+1 rows, row i = state i steps ahead."""

    states: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ContractViolationError(f"trajectory must stack >= 2 states, got shape {arr.shape}")
        object.__setattr__(self, "states", _frozen(arr.copy()))

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.states[i]


@dataclass(frozen=True)
class PlantModel:
    """A discrete-time plant x+ = f(x, u) with its dimensions and equilibrium.

    ``batch_step`` is the plant map, written once: it maps stacked states
    (B, n) and inputs (B, m) to stacked successors, and a row's result must
    not depend on the batch size or on the other rows.  ``step`` maps one
    state and input and is that map's one-row case, so the solver's batched
    candidates, ``rollout`` and the closed loop all step the plant through
    the same arithmetic.  ``terminal_law`` is the plant's local stabilizing
    feedback, if one is published.
    """

    n: int
    m: int
    batch_step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    equilibrium: tuple[np.ndarray, np.ndarray]
    # Derived from batch_step when omitted; a wrapped copy may be passed in
    # to instrument single steps.  dataclasses.replace copies the derived
    # step too, so a copy with a new batch_step passes step=None to derive it
    # again.
    step: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    terminal_law: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.step is None:
            batch_step = self.batch_step

            def step(x: np.ndarray, u: np.ndarray) -> np.ndarray:
                return batch_step(x[np.newaxis], u[np.newaxis])[0]

            object.__setattr__(self, "step", step)
        x_eq = as_vector(self.equilibrium[0], self.n, "equilibrium state")
        u_eq = as_vector(self.equilibrium[1], self.m, "equilibrium input")
        object.__setattr__(self, "equilibrium", (_frozen(x_eq), _frozen(u_eq)))
        x_next = np.asarray(self.step(x_eq, u_eq), dtype=np.float64)
        if x_next.shape != (self.n,):
            raise ContractViolationError(
                f"step must return a length-{self.n} state, got shape {x_next.shape}")
        if np.max(np.abs(x_next - x_eq)) > _EQUILIBRIUM_TOL:
            raise ContractViolationError(
                "declared equilibrium is not a fixed point of step "
                f"(max deviation {np.max(np.abs(x_next - x_eq)):.3e})")


@dataclass(frozen=True)
class BoxSet:
    """Per-coordinate closed interval bounds; +/-inf marks an unbounded side."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ContractViolationError("box bounds must be 1-D arrays of equal length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ContractViolationError("box bounds must not be NaN")
        if not np.all(lo <= hi):
            raise ContractViolationError("box requires lower <= upper elementwise")
        object.__setattr__(self, "lower", _frozen(lo.copy()))
        object.__setattr__(self, "upper", _frozen(hi.copy()))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def contains(self, v: np.ndarray) -> bool:
        return bool(self.contains_rows(v[np.newaxis])[0])

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized membership over stacked rows."""
        return np.all((rows >= self.lower) & (rows <= self.upper), axis=1)


@dataclass(frozen=True)
class EllipsoidSet:
    """Sublevel set {x : (x-center)' shape (x-center) <= level} of a quadratic."""

    center: np.ndarray
    shape: np.ndarray
    level: float

    def __post_init__(self):
        c = as_vector(self.center, name="ellipsoid center")
        s = _as_matrix(self.shape, c.shape[0], c.shape[0], "ellipsoid shape")
        _check_symmetric(s, "ellipsoid shape")
        if np.min(np.linalg.eigvalsh(s)) <= 0.0:
            raise ContractViolationError("ellipsoid shape must be positive definite")
        if not (self.level > 0.0):
            raise ContractViolationError("ellipsoid level must be positive")
        object.__setattr__(self, "center", _frozen(c))
        object.__setattr__(self, "shape", _frozen(s.copy()))
        object.__setattr__(self, "level", float(self.level))

    def value(self, x: np.ndarray) -> float:
        return float(_quadratic_rows(x[np.newaxis] - self.center, self.shape)[0])

    def contains(self, x: np.ndarray) -> bool:
        return bool(self.contains_rows(x[np.newaxis])[0])

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        return _quadratic_rows(rows - self.center, self.shape) <= self.level

    def bounding_box(self) -> "BoxSet":
        """Tight axis-aligned box around the set."""
        half = np.sqrt(self.level * np.diag(np.linalg.inv(self.shape)))
        return BoxSet(self.center - half, self.center + half)


@dataclass(frozen=True)
class ObstacleSet:
    """Circular exclusion zone in two state coordinates: admissible states keep
    (x[a]-c0)^2 + (x[b]-c1)^2 >= radius^2."""

    center: np.ndarray
    radius: float
    axes: tuple[int, int] = (0, 1)

    def __post_init__(self):
        c = as_vector(self.center, 2, "obstacle center")
        if not (self.radius > 0.0):
            raise ContractViolationError("obstacle radius must be positive")
        object.__setattr__(self, "center", _frozen(c))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "axes", (int(self.axes[0]), int(self.axes[1])))

    def admits(self, x: np.ndarray) -> bool:
        return bool(self.admits_rows(x[np.newaxis])[0])

    def admits_rows(self, rows: np.ndarray) -> np.ndarray:
        a, b = self.axes
        da = rows[:, a] - self.center[0]
        db = rows[:, b] - self.center[1]
        return da * da + db * db >= self.radius * self.radius


@dataclass(frozen=True)
class ConstraintSpec:
    """State set (box plus circular exclusions), input box and terminal set.

    When ``terminal`` is None the terminal-position check falls back to the
    state set itself, so the predicted end state must satisfy the same box and
    obstacle constraints as every other state; this keeps the shifted plan of
    the next step feasible even without a designed terminal set.
    """

    state_box: BoxSet
    input_box: BoxSet
    obstacles: tuple[ObstacleSet, ...] = ()
    terminal: Optional[EllipsoidSet] = None

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        if self.terminal is not None and self.terminal.center.shape[0] != self.state_box.dim:
            raise ContractViolationError("terminal set dimension must match the state box")

    def input_ok(self, u: np.ndarray) -> bool:
        return self.input_box.contains(u)

    def state_ok(self, x: np.ndarray) -> bool:
        return bool(self.states_ok_rows(x[np.newaxis])[0])

    def state_violation_kind(self, x: np.ndarray) -> Optional[str]:
        """None when admissible, else which part of the state set failed."""
        if not self.state_box.contains(x):
            return "state-box"
        for obs in self.obstacles:
            if not obs.admits(x):
                return "obstacle"
        return None

    def terminal_ok(self, x: np.ndarray) -> bool:
        return bool(self.terminal_ok_rows(x[np.newaxis])[0])

    def states_ok_rows(self, rows: np.ndarray) -> np.ndarray:
        ok = self.state_box.contains_rows(rows)
        for obs in self.obstacles:
            ok &= obs.admits_rows(rows)
        return ok

    def terminal_ok_rows(self, rows: np.ndarray) -> np.ndarray:
        if self.terminal is not None:
            return self.terminal.contains_rows(rows)
        return self.states_ok_rows(rows)


@dataclass(frozen=True)
class CostSpec:
    """Quadratic cost: per-step state/input weights, terminal weight and the
    reference pair subtracted from states and inputs before weighting."""

    stage_state_weights: tuple[np.ndarray, ...]
    stage_input_weights: tuple[np.ndarray, ...]
    terminal_weight: np.ndarray
    reference: tuple[np.ndarray, np.ndarray]
    # The stage weights stacked into (N, n, n) and (N, m, m) arrays.
    _stacked: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qs = tuple(np.asarray(q, dtype=np.float64) for q in self.stage_state_weights)
        rs = tuple(np.asarray(r, dtype=np.float64) for r in self.stage_input_weights)
        if len(qs) != len(rs) or len(qs) < 1:
            raise ContractViolationError("need equal, nonzero counts of Q and R stage weights")
        n = qs[0].shape[0]
        m = rs[0].shape[0]
        for j, q in enumerate(qs):
            _as_matrix(q, n, n, f"Q[{j}]")
            _check_symmetric(q, f"Q[{j}]")
            if np.min(np.linalg.eigvalsh(q)) < -_SYM_TOL:
                raise ContractViolationError(f"Q[{j}] must be positive semidefinite")
        for j, r in enumerate(rs):
            _as_matrix(r, m, m, f"R[{j}]")
            _check_symmetric(r, f"R[{j}]")
            if np.min(np.linalg.eigvalsh(r)) <= 0.0:
                raise ContractViolationError(f"R[{j}] must be positive definite")
        p = _as_matrix(self.terminal_weight, n, n, "terminal weight")
        _check_symmetric(p, "terminal weight")
        if np.min(np.linalg.eigvalsh(p)) <= 0.0:
            raise ContractViolationError("terminal weight must be positive definite")
        x_ref = as_vector(self.reference[0], n, "state reference")
        u_ref = as_vector(self.reference[1], m, "input reference")
        object.__setattr__(self, "stage_state_weights", tuple(_frozen(q.copy()) for q in qs))
        object.__setattr__(self, "stage_input_weights", tuple(_frozen(r.copy()) for r in rs))
        object.__setattr__(self, "terminal_weight", _frozen(p.copy()))
        object.__setattr__(self, "reference", (_frozen(x_ref), _frozen(u_ref)))
        object.__setattr__(self, "_stacked", (_frozen(np.stack(qs)), _frozen(np.stack(rs))))

    @classmethod
    def constant(cls, q, r, p, horizon: int, reference=None) -> "CostSpec":
        """Time-invariant weights Q_j = q, R_j = r over the given horizon."""
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        r = np.atleast_2d(np.asarray(r, dtype=np.float64))
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        if reference is None:
            reference = (np.zeros(q.shape[0]), np.zeros(r.shape[0]))
        return cls((q,) * horizon, (r,) * horizon, p, reference)

    @property
    def horizon(self) -> int:
        return len(self.stage_state_weights)

    def stage_costs(self, j: int | np.ndarray, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Stage cost of each row of stacked states (B, n) and inputs (B, m).

        ``j`` is the stage index of every row, or an array of one index per
        row, so a single call can price a whole horizon.  A row's value is
        the same either way; ``stage_cost`` is the one-row case, bit for bit.
        """
        j = np.full(xs.shape[0], j, dtype=np.intp)
        q, r = self._stacked
        return (_quadratic_rows(xs - self.reference[0], q[j])
                + _quadratic_rows(us - self.reference[1], r[j]))

    def terminal_costs(self, xs: np.ndarray) -> np.ndarray:
        """Terminal cost of each row of stacked states (B, n); ``terminal_cost``
        is its one-row case, bit for bit."""
        return _quadratic_rows(xs - self.reference[0], self.terminal_weight)

    def stage_cost(self, j: int, x: np.ndarray, u: np.ndarray) -> float:
        return float(self.stage_costs(j, x[np.newaxis], u[np.newaxis])[0])

    def terminal_cost(self, x: np.ndarray) -> float:
        return float(self.terminal_costs(x[np.newaxis])[0])


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a constraint sweep: the first violated position, if any."""

    feasible: bool
    violation_index: Optional[int] = None
    violation_kind: Optional[str] = None

    def __post_init__(self):
        if self.feasible != (self.violation_index is None):
            raise ContractViolationError("feasible iff violation_index is None")


def rollout(model: PlantModel, x0: np.ndarray, plan: Plan) -> Trajectory:
    """Propagate x0 through the plan: states[i+1] = step(states[i], plan[i])."""
    x0 = as_vector(x0, model.n, "initial state")
    if plan.input_dim != model.m:
        raise ContractViolationError(
            f"plan input dimension {plan.input_dim} != model input dimension {model.m}")
    states = np.empty((plan.horizon + 1, model.n), dtype=np.float64)
    states[0] = x0
    x = x0
    for i in range(plan.horizon):
        x = np.asarray(model.step(x, plan.inputs[i]), dtype=np.float64)
        if x.shape != (model.n,):
            raise ContractViolationError("step returned a state of wrong shape")
        states[i + 1] = x
    return Trajectory(states)


def evaluate_cost(cost: CostSpec, traj: Trajectory, plan: Plan) -> float:
    """Total cost: sum of stage costs plus the terminal cost, accumulated in
    horizon order (the solver folds its row costs in the same order)."""
    n_stages = cost.horizon
    if plan.horizon != n_stages:
        raise ContractViolationError(
            f"plan horizon {plan.horizon} != cost horizon {n_stages}")
    if traj.horizon != plan.horizon:
        raise ContractViolationError(
            f"trajectory holds {traj.horizon} steps but plan holds {plan.horizon}")
    stages = cost.stage_costs(np.arange(n_stages), traj.states[:n_stages], plan.inputs)
    total = 0.0
    for value in stages.tolist():
        total = total + value
    return total + cost.terminal_cost(traj.states[n_stages])


def check_feasible(constraints: ConstraintSpec, traj: Trajectory, plan: Plan) -> FeasibilityReport:
    """Find the first constraint violation along the horizon: states 0..N-1
    against the state set, every input against the input box, and the end
    state against the terminal set.  At an index where both the state and
    the input fail, the state's violation is reported."""
    big_n = plan.horizon
    if traj.horizon != big_n:
        raise ContractViolationError("trajectory and plan horizons disagree")
    ok = (constraints.states_ok_rows(traj.states[:big_n])
          & constraints.input_box.contains_rows(plan.inputs))
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        kind = constraints.state_violation_kind(traj.states[i]) or "input-bound"
        return FeasibilityReport(False, i, kind)
    if not constraints.terminal_ok_rows(traj.states[big_n:])[0]:
        return FeasibilityReport(False, big_n, "terminal")
    return FeasibilityReport(True)


def shift_plan(prev: Plan, appended: np.ndarray) -> Plan:
    """Receding-horizon shift: drop the first input, append a new last one."""
    appended = as_vector(appended, prev.input_dim, "appended input")
    return Plan(np.vstack([prev.inputs[1:], appended[np.newaxis, :]]))
