"""Domain types and primitive operations shared by the solver, models and benchmarks.

Conventions: states and inputs are 1-D float64 numpy arrays; a plan stacks N
inputs into an (N, m) array; a trajectory stacks N+1 states into an (N+1, n)
array where row i is the predicted state i steps ahead.  Set membership uses
closed inequalities with no floating tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractViolationError

__all__ = [
    "Plan",
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


def _floats(v, name: str, shape: Optional[tuple] = None, error: type = ContractViolationError,
            finite: bool = True) -> np.ndarray:
    """``v`` as a float64 array, else ``error`` naming ``name``: the one rule
    for numbers from outside, in the Python API and in configs alike.

    Every entry is an int or a float (numpy's included), never a bool, a
    string, bytes or None; a nesting is regular, an integer fits in a float,
    every entry is finite when ``finite`` is set, and the array has
    ``shape`` when one is given (a None entry takes any length).  An ndarray
    of integers or floats is checked by its dtype kind, without a loop over
    its entries, so values coerced in every period cost no more than
    ``np.asarray``."""
    try:
        if isinstance(v, (np.ndarray, np.generic)) and v.dtype.kind in "iuf":
            arr = np.asarray(v, dtype=np.float64)
        else:  # a ragged nesting is an object array of lists, which are no numbers
            items = np.asarray(v, dtype=object)
            if not all(isinstance(e, (int, float, np.integer, np.floating))
                       and not isinstance(e, bool) for e in items.flat):
                raise TypeError
            arr = items.astype(np.float64)  # OverflowError for 10**400
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must hold numbers, got {v!r}") from None
    if shape is not None and (arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape))):
        raise error(f"{name} must have shape {str(shape).replace('None', '*')}, got {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise error(f"{name} must be finite, got {v!r}")
    return arr


def _integer(v, name: str, lo: float, hi: float = math.inf,
             error: type = ContractViolationError) -> int:
    """``v`` as an int in [lo, hi], else ``error`` naming ``name``: a Python
    or numpy integer, never a bool, a float or a string."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= int(v) <= hi:
        return int(v)
    raise error(f"{name} must be an integer in [{lo}, {hi}], got {v!r}")


def as_vector(v, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally enforcing its length."""
    return _floats(v, name, (dim,))


def _weights(mats, name: str, k: Optional[int] = None,
             floor: float = math.ulp(0.0)) -> np.ndarray:
    """The one rule for a weight matrix: ``mats``, a nonempty sequence of
    (k, k) matrices (k from the first when not given), as a (N, k, k)
    float64 stack, else ContractViolationError naming the first offending
    entry as ``name[j]``.  Each entry is coerced by ``_floats``, then one
    pass over the stack per test, in order: finite, symmetric to
    ``_SYM_TOL``, and a least eigenvalue of at least ``floor`` (the least
    positive float by default, so positive definite; -``_SYM_TOL`` for Q)."""
    try:
        mats = tuple(mats)
        first = mats[0]
    except (TypeError, IndexError):
        raise ContractViolationError(
            f"{name} must be a nonempty sequence of matrices, got {mats!r}") from None
    k = _floats(first, f"{name}[0]", (None, None), finite=False).shape[0] if k is None else k
    stack = np.stack([_floats(w, f"{name}[{j}]", (k, k), finite=False) for j, w in enumerate(mats)])
    for what, holds in (
            ("must be finite", lambda: np.isfinite(stack).all(axis=(1, 2))),
            (f"must be symmetric to {_SYM_TOL}",
             lambda: (np.abs(stack - stack.transpose(0, 2, 1)) <= _SYM_TOL).all(axis=(1, 2))),
            (f"must be positive {'definite' if floor > 0.0 else 'semidefinite'}",
             lambda: np.linalg.eigvalsh(stack).min(axis=1) >= floor)):
        ok = holds()
        if not ok.all():
            raise ContractViolationError(f"{name}[{int(np.argmin(ok))}] {what}")
    return stack


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _quadratic_rows(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d' W d along the last axis: rows (B, k) against one (k, k) weight, or
    time-major rows (T, B, k) against a (T, k, k) stack, one weight per time.

    A row's value depends only on that row and its weight: alone, in a
    batch of any width and in a stacked call it gets the same bits (an
    einsum contraction does not have this property).  The products d W come
    from numpy's matmul, so from the linked BLAS, which decides their bits:
    scipy-openblas 0.3.31 fuses multiplies and adds, so for non-diagonal
    weights such as CART_P and BUCK_P they differ from left-to-right
    products at most batch widths.  The k columns of (d W) * d are then
    added left to right from +0.0, the order and start of ``sum(axis=-1)``,
    one pass over the batch per column.
    """
    q = (d @ w) * d
    total = q[..., 0] + 0.0  # from +0.0: a row of -0.0 columns sums to +0.0
    for col in range(1, q.shape[-1]):
        total += q[..., col]
    return total


@dataclass(frozen=True)
class Plan:
    """An ordered sequence of N control inputs, stored as an (N, m) array."""

    inputs: np.ndarray

    def __post_init__(self):
        arr = _floats(self.inputs, "plan")
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ContractViolationError(f"plan must stack N >= 1 inputs, got shape {arr.shape}")
        object.__setattr__(self, "inputs", _frozen(arr.copy()))

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class PlantModel:
    """A discrete-time plant x+ = f(x, u) with its dimensions and equilibrium.

    ``batch_step`` is the plant map, written once: it maps stacked states
    (B, n) and inputs (B, m) to stacked successors, and a row's result must
    not depend on the batch size or on the other rows.  ``step`` maps one
    state and input and is that map's one-row case, so the solver's batched
    candidates, ``rollout`` and the closed loop all step the plant through
    the same arithmetic.  ``terminal_law`` is the plant's local stabilizing
    feedback, if one is published.  Construction steps the equilibrium as one
    row and as a batch of two and refuses a wrong shape or any move, NaN and
    overflow too: the sweep then stores ``batch_step``'s outputs unchecked.
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
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = np.asarray(self.step(x_eq, u_eq), dtype=np.float64)
            if x_next.shape != (self.n,):
                raise ContractViolationError(
                    f"step must return a length-{self.n} state, got shape {x_next.shape}")
            rows = np.asarray(self.batch_step(np.stack([x_eq] * 2), np.stack([u_eq] * 2)), float)
            if rows.shape != (2, self.n):
                raise ContractViolationError(
                    f"batch_step must return (2, {self.n}) states for 2 rows, got {rows.shape}")
            deviation = np.max(np.abs(np.vstack([x_next, rows]) - x_eq))
        if not deviation <= _EQUILIBRIUM_TOL:  # NaN too
            raise ContractViolationError("declared equilibrium is not a fixed point of the "
                                         f"plant map (max deviation {deviation:.3e})")


@dataclass(frozen=True)
class BoxSet:
    """Per-coordinate closed interval bounds; +/-inf marks an unbounded side.
    Membership ands one comparison per side not at its own infinity; a column
    left with none keeps its lower one, so NaN fails in any column.
    ``is_bounded`` (every width upper - lower finite, so every bound finite
    too) is computed once, at construction."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _floats(self.lower, "box lower", (None,), finite=False)
        hi = _floats(self.upper, "box upper", lo.shape, finite=False)
        if not np.all(lo <= hi):  # NaN too
            raise ContractViolationError("box requires lower <= upper elementwise, and no NaN")
        object.__setattr__(self, "lower", _frozen(lo.copy()))
        object.__setattr__(self, "upper", _frozen(hi.copy()))
        comparisons, bounded = [], True  # a side at its own infinity holds every entry but NaN
        for col, (lo_c, hi_c) in enumerate(zip(lo.tolist(), hi.tolist())):
            comparisons += [(col, np.greater_equal, lo_c)] * (lo_c > -np.inf or hi_c == np.inf)
            comparisons += [(col, np.less_equal, hi_c)] * (hi_c < np.inf)
            bounded &= math.isfinite(hi_c - lo_c)  # Python floats: overflow is inf, no warning
        object.__setattr__(self, "_comparisons", tuple(comparisons))
        object.__setattr__(self, "is_bounded", bounded)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized membership over stacked rows, as a fresh bool array."""
        ok = None
        for col, compare, bound in self._comparisons:
            hit = compare(rows[:, col], bound)
            ok = hit if ok is None else np.logical_and(ok, hit, out=ok)
        return np.ones(rows.shape[0], dtype=bool) if ok is None else ok  # no columns


@dataclass(frozen=True)
class EllipsoidSet:
    """Sublevel set {x : (x-center)' shape (x-center) <= level} of a quadratic."""

    center: np.ndarray
    shape: np.ndarray
    level: float

    def __post_init__(self):
        c = as_vector(self.center, name="ellipsoid center")
        s = _weights([self.shape], "ellipsoid shape", c.shape[0])[0]
        level = float(_floats(self.level, "ellipsoid level", ()))
        if not level > 0.0:
            raise ContractViolationError("ellipsoid level must be positive")
        object.__setattr__(self, "center", _frozen(c))
        object.__setattr__(self, "shape", _frozen(s))
        object.__setattr__(self, "level", level)

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        return _quadratic_rows(rows - self.center, self.shape) <= self.level


@dataclass(frozen=True)
class ObstacleSet:
    """Circular exclusion zone in two state coordinates: admissible states keep
    (x[a]-c0)^2 + (x[b]-c1)^2 >= radius^2.  The axes a and b are two distinct
    indices >= 0; a ``ConstraintSpec`` checks that they index its state."""

    center: np.ndarray
    radius: float
    axes: tuple[int, int] = (0, 1)

    def __post_init__(self):
        c = as_vector(self.center, 2, "obstacle center")
        radius = float(_floats(self.radius, "obstacle radius", ()))
        if not radius > 0.0:
            raise ContractViolationError("obstacle radius must be positive")
        if not (isinstance(self.axes, (tuple, list)) and len(self.axes) == 2):
            raise ContractViolationError(f"obstacle axes must be two integers, got {self.axes!r}")
        axes = tuple(_integer(a, "obstacle axes", 0) for a in self.axes)
        if axes[0] == axes[1]:
            raise ContractViolationError(f"obstacle axes must be distinct, got {axes}")
        object.__setattr__(self, "center", _frozen(c))
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "axes", axes)

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
        for obs in self.obstacles:
            if max(obs.axes) >= self.state_box.dim:
                raise ContractViolationError(f"obstacle axes {obs.axes} must index the "
                                             f"{self.state_box.dim} state coordinates")
        if self.terminal is not None and self.terminal.center.shape[0] != self.state_box.dim:
            raise ContractViolationError("terminal set dimension must match the state box")

    def input_ok(self, u: np.ndarray) -> bool:
        return bool(self.input_box.contains_rows(u[np.newaxis])[0])

    def state_ok(self, x: np.ndarray) -> bool:
        return bool(self.states_ok_rows(x[np.newaxis])[0])

    def state_violation_kind(self, x: np.ndarray) -> Optional[str]:
        """None when admissible, else which part of the state set failed."""
        row = x[np.newaxis]
        if not self.state_box.contains_rows(row)[0]:
            return "state-box"
        if not all(obs.admits_rows(row)[0] for obs in self.obstacles):
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

    def path_ok_rows(self, states: np.ndarray) -> np.ndarray:
        """(T, B) mask of time-major states (T, B, n) whose last time index is
        the horizon's end: the states before it against the state set, the
        end states through ``terminal_ok_rows``.  With no terminal set the
        whole block is one ``states_ok_rows`` call; with one, a block of one
        time index is one ``terminal_ok_rows`` call."""
        big_t, width, n = states.shape
        if self.terminal is None:
            return self.states_ok_rows(states.reshape(big_t * width, n)).reshape(big_t, width)
        ok = np.empty((big_t, width), dtype=bool)
        if big_t > 1:
            ok[:-1] = self.states_ok_rows(
                states[:-1].reshape((big_t - 1) * width, n)).reshape(big_t - 1, width)
        ok[-1] = self.terminal_ok_rows(states[-1])
        return ok


@dataclass(frozen=True)
class CostSpec:
    """Quadratic cost: per-step state/input weights, terminal weight and the
    reference pair subtracted from states and inputs before weighting.  The
    state weights are kept as one read-only (N + 1, n, n) stack, Q_0..Q_{N-1}
    then P, and ``stage_state_weights`` and ``terminal_weight`` are views
    into it, so ``fold`` prices states 0..N in one pass; the input
    weights (any sequence of matrices) are a read-only (N, m, m) stack.  A
    spec can be rebuilt from its own fields."""

    stage_state_weights: np.ndarray
    stage_input_weights: np.ndarray
    terminal_weight: np.ndarray
    reference: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        q_stack = _weights(self.stage_state_weights, "stage_state_weights", floor=-_SYM_TOL)
        r_stack = _weights(self.stage_input_weights, "stage_input_weights")
        if len(q_stack) != len(r_stack):
            raise ContractViolationError(
                f"stage_state_weights and stage_input_weights must have equal counts, "
                f"got {len(q_stack)} and {len(r_stack)}")
        n, m = q_stack.shape[1], r_stack.shape[1]
        p = _weights([self.terminal_weight], "terminal weight", n)[0]
        try:
            x_ref, u_ref = self.reference
        except (TypeError, ValueError):
            raise ContractViolationError(
                f"reference must be a (state, input) pair, got {self.reference!r}") from None
        x_ref = as_vector(x_ref, n, "state reference")
        u_ref = as_vector(u_ref, m, "input reference")
        state_weights = _frozen(np.concatenate([q_stack, p[np.newaxis]]))
        object.__setattr__(self, "_state_weights", state_weights)
        object.__setattr__(self, "stage_state_weights", state_weights[:-1])
        object.__setattr__(self, "stage_input_weights", _frozen(r_stack))
        object.__setattr__(self, "terminal_weight", state_weights[-1])
        object.__setattr__(self, "reference", (_frozen(x_ref), _frozen(u_ref)))

    @classmethod
    def constant(cls, q, r, p, horizon: int, reference=None) -> "CostSpec":
        """Time-invariant weights Q_j = q, R_j = r over the given horizon."""
        q = np.atleast_2d(_floats(q, "stage state weight q"))
        r = np.atleast_2d(_floats(r, "stage input weight r"))
        p = np.atleast_2d(_floats(p, "terminal weight p"))
        if reference is None:
            reference = (np.zeros(q.shape[0]), np.zeros(r.shape[0]))
        horizon = _integer(horizon, "horizon", 1, sys.maxsize)
        return cls((q,) * horizon, (r,) * horizon, p, reference)

    @property
    def horizon(self) -> int:
        return len(self.stage_state_weights)

    def fold(self, start: int, base: float | np.ndarray, states: np.ndarray,
             inputs: np.ndarray) -> np.ndarray:
        """Running costs of B rows from stage ``start`` to the end of the horizon.

        ``states`` is time-major (N + 1 - start, B, n) and ``inputs`` is
        (N - start, B, m).  ``base`` is one value for every row or a (B,)
        array, one per row.  Row k of the (N + 2 - start, B) result is the
        row's base plus its stage costs ``start`` to ``start + k - 1``, added
        left to right; the last row then adds the terminal cost, so it holds
        the totals.  So a fold resumed at a later stage, from the running
        costs there, gives the bits of the fold from the earlier stage.  One
        quadratic form prices every state, the end state with P, from the
        one state-weight stack, and one prices every input, each time index
        with its own stage's weight slice.  A row's values depend only on
        that row, its start and its base.  Every total cost in the package
        comes from this fold: ``evaluate_cost`` is its one-row case from
        stage 0.
        """
        n_stages, rows = inputs.shape[:2]
        folded = np.empty((n_stages + 2, rows), dtype=np.float64)
        folded[0] = base
        folded[1:] = _quadratic_rows(states - self.reference[0], self._state_weights[start:])
        folded[1:-1] += _quadratic_rows(inputs - self.reference[1], self.stage_input_weights[start:])
        return np.add.accumulate(folded, axis=0)

    def stage_cost(self, j: int, x: np.ndarray, u: np.ndarray) -> float:
        """Stage j's cost of one state and input, the fold's term bit for bit."""
        return float((_quadratic_rows(x[np.newaxis, np.newaxis] - self.reference[0],
                                      self.stage_state_weights[j:j + 1])
                      + _quadratic_rows(u[np.newaxis, np.newaxis] - self.reference[1],
                                        self.stage_input_weights[j:j + 1]))[0, 0])

    def terminal_cost(self, x: np.ndarray) -> float:
        """Terminal cost of one state, the fold's end term bit for bit."""
        return float(_quadratic_rows(x[np.newaxis] - self.reference[0], self.terminal_weight)[0])


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a constraint sweep: the first violated position, if any."""

    feasible: bool
    violation_index: Optional[int] = None
    violation_kind: Optional[str] = None

    def __post_init__(self):
        if self.feasible != (self.violation_index is None):
            raise ContractViolationError("feasible iff violation_index is None")


def rollout(model: PlantModel, x0: np.ndarray, plan: Plan) -> np.ndarray:
    """Propagate x0 through the plan: states[i+1] = step(states[i], inputs[i]).

    Returns the predicted trajectory, a read-only (N+1, n) float64 array
    whose row i is the state i steps ahead.
    """
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
    return _frozen(states)


def _check_states(states: np.ndarray, plan: Plan, n: int, m: int, owner: str) -> None:
    """ContractViolationError unless ``states`` stacks the plan's horizon + 1
    states of width n and the plan's inputs have dimension m, the state and
    input dimensions of ``owner``."""
    if states.ndim != 2 or states.shape[0] != plan.horizon + 1:
        raise ContractViolationError(
            f"states must stack plan horizon + 1 = {plan.horizon + 1} rows, got {states.shape}")
    if states.shape[1] != n:
        raise ContractViolationError(
            f"states have width {states.shape[1]}, the {owner}'s state dimension is {n}")
    if plan.input_dim != m:
        raise ContractViolationError(
            f"plan input dimension {plan.input_dim} != the {owner}'s input dimension {m}")


def evaluate_cost(cost: CostSpec, states: np.ndarray, plan: Plan) -> float:
    """Total cost of a plan and its (N+1, n) trajectory, as ``rollout``
    returns it: the stage costs added in horizon order, then the terminal
    cost (``CostSpec.fold`` of the one row from stage 0)."""
    if plan.horizon != cost.horizon:
        raise ContractViolationError(
            f"plan horizon {plan.horizon} != cost horizon {cost.horizon}")
    _check_states(states, plan, cost.reference[0].shape[0], cost.reference[1].shape[0], "cost")
    return float(cost.fold(0, 0.0, states[:, np.newaxis], plan.inputs[:, np.newaxis])[-1, 0])


# A state far outside the sets (inf, 1e200) overflows the set tests; it fails
# them silently.
@np.errstate(over="ignore", invalid="ignore")
def check_feasible(constraints: ConstraintSpec, states: np.ndarray, plan: Plan) -> FeasibilityReport:
    """Find the first constraint violation along a plan and its (N+1, n)
    trajectory, as ``rollout`` returns it: states 0..N-1 against the state
    set, every input against the input box, and the end state against the
    terminal set (``ConstraintSpec.path_ok_rows``, the sweep's rule).  At an
    index where both the state and the input fail, the state's violation is
    reported."""
    _check_states(states, plan, constraints.state_box.dim, constraints.input_box.dim,
                  "constraint set")
    big_n = plan.horizon
    path = constraints.path_ok_rows(states[:, np.newaxis])[:, 0]
    ok = path[:big_n] & constraints.input_box.contains_rows(plan.inputs)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        kind = constraints.state_violation_kind(states[i]) or "input-bound"
        return FeasibilityReport(False, i, kind)
    if not path[big_n]:
        return FeasibilityReport(False, big_n, "terminal")
    return FeasibilityReport(True)


def shift_plan(prev: Plan, appended: np.ndarray) -> Plan:
    """Receding-horizon shift: drop the first input, append a new last one."""
    appended = as_vector(appended, prev.input_dim, "appended input")
    return Plan(np.vstack([prev.inputs[1:], appended[np.newaxis, :]]))
