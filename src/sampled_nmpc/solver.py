"""Backward-in-horizon, sampling-based improvement of a feasible warm start,
plus warm-start construction (oracle search, receding-horizon shift) and the
closed-loop simulation driver.

One solve walks the horizon positions from the last to the first.  At each
position j it draws n_j samples from the input box and forms one candidate
plan per sample by swapping that single position in the current reference
plan.  The cheapest strictly-improving feasible candidate (lowest sample
index on ties; the reference survives ties) becomes the reference for the
next position.

That sequential sweep is computed as one tensor in rounds.  All of the
solve's samples come from one ``draw_blocks`` call, in the sweep's order.
The solve holds one (N, R, m) input tensor and one (N + 1, R, n) state
tensor, indexed by absolute time, with R = sum_j n_j rows, highest position
first; row b holds the reference inputs except its own sample at its
position.  Both start as the warm start.  The reference is the warm start
until a row is accepted and the last accepted row after, so the solve keeps
no other copy of it and returns that row's inputs and states, or the warm
start's own when it accepts none.  Every kernel gives a row the same bits
whatever the batch around it, so a row repeats the reference states up to
its start: its own position before its first round, the last accepted
position after it.

Each round steps all its rows from the round's lowest start to the
horizon's end, one ``batch_step`` call per time index, and masks them in two
row-wise calls, one for the states before the end and one for the end
states (``_step_rows``, which the oracle search shares).  Below its own
start a row holds the reference inputs, so by the ``PlantModel`` contract
it re-derives the reference states there bit for bit.  The highest position
with a strictly cheaper feasible row accepts its cheapest, which decides
every position down to it as the sequential sweep does; a round with no
such row decides all its positions.  No input below an accepted j_a changes
again, so the undecided rows keep their states, first violations and
running costs up to j_a: the accepted row's input at j_a is written into
them, and j_a becomes their start (a row whose first violation is at or
before j_a keeps it).  No later round writes a decided row, so the accepted
row keeps its plan and its trajectory.
One width rule, ``_round_width``, takes positions from the top while their
rows times N minus their lowest start stay within ``_ROUND_ROW_STEPS``, and
at least one.  The first round holds every position, so it steps all R
rows from j_low, the lowest drawn position: R (N - j_low) row steps in
N - j_low calls.  Each later round takes the undecided positions under the
rule.  A solve that accepts nothing makes those N - j_low calls only.

Every cost comes from ``core.fold_costs``, which adds stage costs left to
right from a start stage and a base, one for all rows or one per row, then
the terminal cost.  Every row starts with the warm start's running costs,
its fold from stage 0.  A round prices its rows in groups under the width
rule, each from its lowest start with the rows' running costs there as
bases, and keeps their running costs from there; a later round is one
group.  So a candidate's total is the sum ``evaluate_cost`` forms for its
plan, bit for bit.

``f_evals``, ``cost_evals`` and ``improvements`` are the sequential sweep's
counts, taken from each decided row's last round.  A candidate at position
j counts the steps from j to its first violating state, and a feasible one
all N - j steps and one cost evaluation, so a solve where no candidate
violates counts the paper's sum_j (N - j) n_j and sum_j n_j exactly.  These
are counts, not the steps made: every row steps to the horizon's end.  The
rows of position j step N - j_low times in the first round, and N - a times
in each later round that holds them, where a is the accepted position the
round resumes from; the rounds that hold j resume from distinct accepted
positions above j.  So, beyond a rolled out warm start's N, a solve makes at
most sum_j n_j (N - j_low + sum_{a in A, a > j} (N - a)) row steps, A the
accepted positions, which is at most R (N - j_low) (1 + |A|).

Feasibility is tested with the row kernels that ``check_feasible``
applies, two mask calls per round.  One random search, ``_search``, finds
both the oracle's plan and the feasible-sample append, its horizon-1 case;
a batch larger than ``_ORACLE_PROBE`` masks each step's newest states and
drops its failed rows once at most half are alive, so its work follows the
live sequences.  ``improve_plan``'s entry ``check_feasible`` of the warm
start's trajectory is the one certificate of every warm start (a first
period left unimproved is the same solve with no samples), and the sweep's
masks certify each candidate it accepts.  A plan built here carries the
trajectory its model stepped: the oracle's batch row, a solve's last
accepted row, or the previous prediction shifted plus one step of the
appended input.
The entry check takes it when the model object is the same and x is its
first state bit for bit, and rolls the plan out otherwise (a caller's plan,
another model, a measured state off the prediction); every kernel gives a
row the same bits whatever the batch, so the two agree bit for bit.

The time budget is polled once before the draw and after each batched
step.  A round cut short decides none of its positions, so they keep the
reference, and a budget that expires before the draw or during the first
round returns the warm start: an interrupted solve still returns a feasible
plan no worse than the warm start, and its counters cover the decided
positions only.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    ConstraintSpec,
    CostSpec,
    Plan,
    PlantModel,
    _floats,
    _frozen,
    _integer,
    as_vector,
    check_feasible,
    evaluate_cost,  # noqa: F401  (kept a module global, as the benchmark's tracer wraps it)
    fold_costs,
    rollout,
    shift_plan,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    InfeasibleWarmStartError,
    NoOracleError,
    NoTerminalLawError,
    WarmStartFailureError,
)
from .sampling import SamplerConfig, SamplerState, derive_seed, draw_blocks, draw_samples

__all__ = [
    "SolverConfig",
    "SolveResult",
    "StepRecord",
    "RunLog",
    "improve_plan",
    "find_oracle",
    "make_warm_start",
    "closed_loop",
]

WARM_START_MODES = ("terminal-controller", "feasible-sample")

_ORACLE_STREAM_TAG = 1
# The oracle search steps a small probe first, then full batches.  Most starts
# find a feasible sequence within a few dozen draws, and a batched call costs
# about its fixed overhead up to a few dozen rows, so the probe finds an easy
# start's plan without stepping a full batch; a hard start pays one more call.
_ORACLE_PROBE = 64
_ORACLE_BATCH = 1024
# The feasible-sample append searches its one-step inputs in batches of this size.
_APPEND_BATCH = 256
# A round after the first takes positions while their rows times N minus
# their lowest start stay within this many row steps, and every round prices
# its rows in groups under the same rule (``_round_width``).  A narrow
# batched call costs about its fixed overhead, so wider rounds save calls,
# but a round re-steps the rows of every position below its acceptance, and
# a wide fold runs out of cache.  In process, 2048 slowed cart_horizon_100
# and 8192 or more slowed cart_horizon_050 and the first solves against
# 4096; no config with N <= 20 reaches the bound (cart_horizon_020's first
# round holds 200 rows times 20 stages, 4000 row steps).  The first round
# prices its rows in groups rather than in one fold because a one-fold
# first round made the cart_horizon_100 closed loop 1.12 times slower.
_ROUND_ROW_STEPS = 4096
# The memory one closed-loop step's StepRecord keeps, in floats: the slotted
# object, the view of its state row, its input array and the boxed numbers.
# Under tracemalloc (CPython 3.11, numpy 2.4) a run's log grew by 412-459
# bytes per step beyond its state log on the three plants at N = 10 (10
# against 210 steps); 80 floats are 640 bytes.
_RECORD_FLOATS = 80


@dataclass(frozen=True)
class SolverConfig:
    """Solve-time knobs: horizon, per-position sample counts (a scalar
    broadcasts), the sampling scheme, optional wall-clock budget in seconds,
    the random-search budget for oracle and append searches, and how warm
    starts are built: ``initial_plan``, when given, is the first period's
    warm start in place of the oracle search, and ``warm_start_mode`` picks
    how each later one appends its last input.  ``lanes`` is only the p of
    the complexity bounds: every solve evaluates its samples in batches, so
    the lane count never changes the computation.  No knob changes how a
    solve counts its work: a candidate counts its steps up to its first
    violating state (see the module docstring)."""

    horizon: int
    samples_per_step: int | Sequence[int] = 10
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    lanes: int = 1
    time_budget: Optional[float] = None
    oracle_budget: int = 100_000
    warm_start_mode: str = "terminal-controller"
    improve_initial: bool = True
    initial_plan: Optional[Plan] = None

    def __post_init__(self):
        for name, lo, hi in (("horizon", 1, sys.maxsize), ("lanes", 1, math.inf),
                             ("oracle_budget", 0, math.inf)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo, hi, ConfigError))
        if not isinstance(self.improve_initial, bool):
            raise ConfigError("improve_initial must be True or False")
        budget = self.time_budget  # may be infinite
        if budget is not None and not _floats(budget, "time_budget", (), ConfigError,
                                              finite=False) > 0:  # NaN too
            raise ConfigError(f"time_budget must be a positive number when set, got {budget!r}")
        if not isinstance(self.sampler, SamplerConfig):
            raise ConfigError(f"sampler must be a SamplerConfig, got {self.sampler!r}")
        if self.initial_plan is not None and not isinstance(self.initial_plan, Plan):
            raise ConfigError(f"initial_plan must be a Plan, got {self.initial_plan!r}")
        if self.initial_plan is not None and self.initial_plan.horizon != self.horizon:
            raise ConfigError(f"initial_plan has horizon {self.initial_plan.horizon}, "
                              f"horizon is {self.horizon}")
        if self.warm_start_mode not in WARM_START_MODES:
            raise ConfigError(f"warm_start_mode must be one of {WARM_START_MODES}")
        counts = self.samples_per_step
        try:
            counts = (counts,) * self.horizon if np.isscalar(counts) else tuple(counts)
        except TypeError:  # not iterable (None, a 0-d array): rejected below
            counts = (counts,)
        counts = tuple(_integer(c, "samples_per_step", 0, math.inf, ConfigError) for c in counts)
        if len(counts) != self.horizon:
            raise ConfigError(
                f"samples_per_step has {len(counts)} entries for horizon {self.horizon}")
        object.__setattr__(self, "samples_per_step", counts)

    @property
    def sample_counts(self) -> tuple[int, ...]:
        return self.samples_per_step  # normalized to a tuple in __post_init__


@dataclass(frozen=True)
class SolveResult:
    """One solve's outcome: the improved plan, its predicted (N+1, n)
    trajectory from the solve's state (read-only), its cost, the work
    counters of the sequential sweep (plant steps and full-cost evaluations
    it spends on candidates, however its rounds computed it), the number
    of accepted replacements, wall time and whether the budget cut the
    sweep."""

    plan: Plan
    states: np.ndarray
    j_sub: float
    f_evals: int
    cost_evals: int
    improvements: int
    elapsed: float
    budget_hit: bool


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Per-closed-loop-step log row (state BEFORE applying the input, a
    read-only view of its row of ``RunLog.states``)."""

    k: int
    state: np.ndarray
    applied_input: np.ndarray
    j_sub: float
    f_evals: int
    cost_evals: int
    improvements: int
    elapsed: float
    budget_hit: bool


@dataclass(frozen=True)
class RunLog:
    """Closed-loop record: one StepRecord per applied input, the visited
    states (one more than records) and why the run ended."""

    records: tuple[StepRecord, ...]
    states: np.ndarray
    termination: str


@dataclass(frozen=True)
class _SteppedPlan(Plan):
    """A plan and the read-only (N+1, n) trajectory ``model`` stepped it along."""

    states: np.ndarray
    model: PlantModel


def improve_plan(x: np.ndarray, warm: Plan, model: PlantModel,
                 constraints: ConstraintSpec, cost: CostSpec, cfg: SolverConfig,
                 sampler_state: Optional[SamplerState] = None) -> SolveResult:
    """Run one backward sweep of single-position sample replacements,
    evaluated as one tensor in rounds (see the module docstring).

    The warm start's trajectory from x (the one it carries, see the module
    docstring, else a rollout) is checked on entry, its one certificate, and
    rejected with InfeasibleWarmStartError if infeasible; those states and
    ``fold_costs`` give the reference and its running costs, and a warm
    start whose cost is not finite (a plant or a cost whose arithmetic
    overflows) is refused with ContractViolationError.  All samples
    are drawn in one call.  Each round steps all its rows from its lowest
    start, masks and prices them, and the highest position with a strictly
    cheaper feasible row accepts its cheapest.  The first round holds every
    position; each later one resumes the undecided positions that the width
    rule takes at the last accepted position.  The returned cost never
    exceeds the warm start's cost, and the returned plan, which carries the
    returned states, is feasible even when the time budget interrupts the
    sweep.  With no samples it returns the warm start, certified and
    priced, and counts no work.
    """
    return _solve(x, warm, model, constraints, cost, cfg, cfg.sample_counts, sampler_state)


# Rows that leave the state set, and a plant whose arithmetic overflows, step
# on silently: the masks exclude such rows, and the entry check refuses such a
# warm start.
@np.errstate(over="ignore", invalid="ignore")
def _solve(x: np.ndarray, warm: Plan, model: PlantModel, constraints: ConstraintSpec,
           cost: CostSpec, cfg: SolverConfig, counts: Sequence[int],
           sampler_state: Optional[SamplerState]) -> SolveResult:
    """``improve_plan`` with its sample counts given apart from ``cfg``: empty
    counts draw nothing, the solve of a period left unimproved."""
    t_start = time.perf_counter()
    deadline = None if cfg.time_budget is None else t_start + cfg.time_budget
    big_n = cfg.horizon
    if warm.horizon != big_n:
        raise ContractViolationError(f"warm start has horizon {warm.horizon}, config says {big_n}")
    if cost.horizon != big_n:
        raise ContractViolationError("cost horizon disagrees with solver horizon")
    x = as_vector(x, model.n, "state")
    carried = (isinstance(warm, _SteppedPlan) and warm.model is model
               and warm.states[0].tobytes() == x.tobytes())  # -0.0 is not 0.0
    warm_states = warm.states if carried else rollout(model, x, warm)
    report = check_feasible(constraints, warm_states, warm)
    if not report.feasible:
        raise InfeasibleWarmStartError(
            f"warm start violates {report.violation_kind} at index {report.violation_index}")
    # Row t of the running costs is the stage costs 0..t-1, the last row the cost.
    ref_run = fold_costs(cost, 0, 0.0, warm_states[:, np.newaxis], warm.inputs[:, np.newaxis])
    j_ref = ref_run[-1, 0]
    if not np.isfinite(j_ref):
        raise ContractViolationError(f"warm start cost is not finite: {j_ref}")
    if sampler_state is None:
        sampler_state = SamplerState(cfg.sampler)
    best = None  # the column of the last accepted row, which holds the reference

    positions = [j for j in range(len(counts) - 1, -1, -1) if counts[j]]
    f_evals = cost_evals = improvements = 0
    budget_hit = bool(positions) and deadline is not None and time.perf_counter() >= deadline
    if positions and not budget_hit:
        sizes = [counts[j] for j in positions]
        samples = draw_blocks(sampler_state, constraints.input_box, sizes)
        if not constraints.input_box.contains_rows(samples).all():
            raise ContractViolationError("draw_blocks returned an input outside the input box")
        # One row per sample, highest position first; block[i] is the first
        # row of positions[i], so the undecided rows are always a suffix.
        # Time-major tensors from time 0, built as the reference repeated
        # (np.repeat copies whole rows, where a broadcast assignment goes
        # element by element): row b holds the reference inputs except its
        # own sample at pos[b].  viol[b] is the index of row b's first
        # violating state in its latest round, N + 1 while it has none;
        # run[t, b] is its running cost before stage t, the warm start's
        # until a fold prices it.  start[i] is the time from which the rows
        # of positions[i] step next.
        block = [0, *itertools.accumulate(sizes)]
        pos = np.repeat(positions, sizes)
        us = np.repeat(warm.inputs[:, np.newaxis], block[-1], axis=1)
        us[pos, np.arange(block[-1])] = samples
        xs = np.repeat(warm_states[:, np.newaxis], block[-1], axis=1)
        viol = np.full(block[-1], big_n + 1)
        run = np.repeat(ref_run, block[-1], axis=1)
        start = positions.copy()

        lo, hi = 0, len(positions)  # the first round holds every position
        while lo < len(positions):
            # Every row steps from the round's lowest start t0: from t0 to its
            # own start a row re-derives the reference states, bit for bit.
            t0, rows = start[hi - 1], slice(block[lo], block[hi])
            ok = _step_rows(xs[t0:, rows], us[t0:, rows], model, constraints, deadline)
            if ok is None:
                budget_hit = True
                break
            viol[rows] = np.where(viol[rows] <= t0, viol[rows], t0 + 1 + ok.argmin(axis=0))
            h = lo
            while h < hi:  # price the rows in groups, each from its lowest start
                g, h = h, _round_width(block, start, h, big_n)
                j, grp = start[h - 1], slice(block[g], block[h])
                run[j:, grp] = fold_costs(cost, j, run[j, grp], xs[j:, grp], us[j:, grp])
            totals = run[-1, rows]
            better = np.flatnonzero((viol[rows] > big_n) & (totals < j_ref))
            if better.size:
                # The highest position with a cheaper row accepts its first
                # minimum (lowest sample index on ties), which decides every
                # position down to it; the undecided rows take its input
                # and step next from it (a Python int: start's arithmetic
                # and slicing are faster on it than on a numpy scalar).
                j_a = int(pos[rows.start + better[0]])
                lo = positions.index(j_a, lo) + 1
                better = better[better < block[lo] - rows.start]
                win = better[np.argmin(totals[better])]
                best, j_ref = rows.start + win, totals[win]
                improvements += 1
                us[j_a, block[lo]:] = us[j_a, best]
                start[lo:] = [j_a] * (len(positions) - lo)
            else:
                lo = hi
            if lo < len(positions):
                hi = _round_width(block, start, lo, big_n)

        # The counters are the sequential sweep's, over the decided positions.
        swept = slice(0, block[lo])
        f_evals = int(np.sum(np.minimum(viol[swept], big_n) - pos[swept]))
        cost_evals = int(np.count_nonzero(viol[swept] > big_n))

    plan, states = ((warm.inputs, warm_states) if best is None
                    else (us[:, best], _frozen(xs[:, best].copy())))
    return SolveResult(plan=_SteppedPlan(plan, states, model), states=states,
                       j_sub=float(j_ref), f_evals=f_evals, cost_evals=cost_evals,
                       improvements=improvements, elapsed=time.perf_counter() - t_start,
                       budget_hit=budget_hit)


def _round_width(block: Sequence[int], start: Sequence[int], lo: int, big_n: int) -> int:
    """The end hi of the positions from lo that one round or one fold group
    takes: while their rows, block[lo]:block[hi], times N - start[hi - 1],
    their lowest start, stay within ``_ROUND_ROW_STEPS`` row steps, and at
    least lo + 1.  From lo on the starts descend or are all equal, so the
    product grows with hi."""
    fit = bisect.bisect_right(range(lo + 1, len(start) + 1), _ROUND_ROW_STEPS,
                              key=lambda hi: (block[hi] - block[lo]) * (big_n - start[hi - 1]))
    return lo + max(fit, 1)


def _step_rows(xs: np.ndarray, us: np.ndarray, model: PlantModel,
               constraints: ConstraintSpec, deadline: Optional[float]) -> Optional[np.ndarray]:
    """Step all the time-major rows from xs[0] through inputs us (T, B, m)
    into xs[1:], one ``batch_step`` call per time index, and return their
    (T + 1, B) mask: row k - 1 says whether state k passes (state T the
    terminal set), and row T is all False, so that a row's argmin over time
    is its first violation.  None when the deadline passes, polled after
    each step."""
    big_t, width, n = us.shape[0], us.shape[1], xs.shape[2]
    # Every row steps to its end; silence any overflow of rows that left the
    # state set, the masks below exclude them.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(big_t):
            xs[k + 1] = model.batch_step(xs[k], us[k])
            if deadline is not None and time.perf_counter() >= deadline:
                return None
        ok = np.zeros((big_t + 1, width), dtype=bool)
        ok[:big_t - 1] = constraints.states_ok_rows(xs[1:big_t].reshape(-1, n)).reshape(-1, width)
        ok[big_t - 1] = constraints.terminal_ok_rows(xs[big_t])
    return ok


def _oracle_stream(cfg: SolverConfig) -> SamplerState:
    # Random search always draws from its own seed-derived random stream, even
    # when improvement sampling uses grid or Halton points: the grid repeats
    # the same sequence forever and would never explore new candidates.
    return SamplerState(SamplerConfig(scheme="random",
                                      seed=derive_seed(cfg.sampler.seed, _ORACLE_STREAM_TAG)))


def _search(x: np.ndarray, stream: SamplerState, sizes: Iterator[int], budget: int,
            horizon: int, model: PlantModel,
            constraints: ConstraintSpec) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The first of ``budget`` (horizon, m) input sequences drawn from
    ``stream`` that is feasible from x, with its (horizon + 1, n) states, or
    None.  The sequences are drawn in batches of the ``sizes`` in turn.

    A batch of at most ``_ORACLE_PROBE`` rows steps the whole horizon and is
    masked at once (``_step_rows``).  More rows mask each step's newest
    states and keep a running alive mask; once at most half of the rows held
    are alive, only the alive ones are kept, in order, with their inputs and
    their states so far, and once at most ``_ORACLE_PROBE`` are kept
    ``_step_rows`` finishes them.  A batch whose rows have all failed ends at
    once; else the first alive row holds the sequence found, which is
    returned.  Every kernel gives a row the same bits whatever the batch, so
    the states are the row's rollout and the result does not depend on the
    batching."""
    while budget > 0:
        batch = min(budget, next(sizes))
        budget -= batch
        us = draw_samples(stream, constraints.input_box, batch * horizon).reshape(
            batch, horizon, model.m).transpose(1, 0, 2)
        xs = np.empty((horizon + 1, batch, model.n), dtype=np.float64)
        xs[0] = x
        alive = np.ones(batch, dtype=bool)
        k = 0
        # Dead rows step on until they are dropped; silence their overflow,
        # the alive mask excludes them.
        with np.errstate(over="ignore", invalid="ignore"):
            while alive.size > _ORACLE_PROBE and k < horizon:
                xs[k + 1] = model.batch_step(xs[k], us[k])
                k += 1
                alive &= (constraints.terminal_ok_rows(xs[k]) if k == horizon
                          else constraints.states_ok_rows(xs[k]))
                if k < horizon and 2 * np.count_nonzero(alive) <= alive.size:
                    live = np.flatnonzero(alive)
                    us, alive = us[:, live], alive[live]
                    kept = np.empty((horizon + 1, live.size, model.n), dtype=np.float64)
                    kept[:k + 1] = xs[:k + 1, live]
                    xs = kept
            if alive.size and k < horizon:
                ok = _step_rows(xs[k:], us[k:], model, constraints, None)
                alive = ok[:horizon - k].all(axis=0)
        hits = np.flatnonzero(alive)
        if hits.size:
            return us[:, hits[0]], xs[:, hits[0]].copy()
    return None


def find_oracle(x: np.ndarray, model: PlantModel, constraints: ConstraintSpec,
                cost: CostSpec, cfg: SolverConfig) -> Plan:
    """Draw random full input sequences until one is feasible from x.

    ``_search`` draws them from the oracle's own random stream, a probe of
    ``_ORACLE_PROBE`` sequences and then batches of ``_ORACLE_BATCH``, and
    returns the first in stream order whose states pass the state set and
    whose end state passes the terminal set.  The plan carries that row's
    states, which ``improve_plan``'s entry check certifies.  Deterministic
    for a given seed; raises NoOracleError when ``cfg.oracle_budget``
    sequences hold no feasible one (including a budget of zero).
    """
    del cost  # the oracle only needs feasibility
    x = as_vector(x, model.n, "state")
    if cfg.oracle_budget < 1:
        raise NoOracleError("oracle budget is zero")
    if not constraints.state_ok(x):
        raise NoOracleError(f"initial state {x} violates the state constraints")
    sizes = itertools.chain([_ORACLE_PROBE], itertools.repeat(_ORACLE_BATCH))
    hit = _search(x, _oracle_stream(cfg), sizes, cfg.oracle_budget, cfg.horizon, model,
                  constraints)
    if hit is None:
        raise NoOracleError(f"no feasible sequence within {cfg.oracle_budget} random draws")
    return _SteppedPlan(hit[0], _frozen(hit[1]), model)


def make_warm_start(prev: SolveResult, x_new: np.ndarray, model: PlantModel,
                    constraints: ConstraintSpec, cfg: SolverConfig,
                    sampler_state: Optional[SamplerState] = None) -> Plan:
    """Shift the previous plan and append a new last input at the previous
    predicted end state ``prev.states[-1]``.

    Mode 'terminal-controller' appends the terminal law there;
    'feasible-sample' appends the first input of the improvement stream that
    steps it into the terminal set: the oracle's ``_search`` at horizon 1,
    in batches of ``_APPEND_BATCH``, raising WarmStartFailureError when
    ``max(cfg.oracle_budget, 1)`` samples hold none.  After a solve with
    this model object the plan carries ``prev.states[1:]`` and the appended
    input's step, one one-row ``batch_step`` for the terminal law.  x_new is
    the state the plan will be certified from: ``improve_plan`` raises
    InfeasibleWarmStartError if the shift is infeasible from x_new.
    """
    as_vector(x_new, model.n, "state")
    end = prev.states[-1]
    if cfg.warm_start_mode == "terminal-controller":
        if model.terminal_law is None:
            raise NoTerminalLawError(f"plant {model.name or '?'} has no terminal law")
        return _shifted(prev, model.terminal_law(end), model)
    hit = _search(end, sampler_state or SamplerState(cfg.sampler), itertools.repeat(_APPEND_BATCH),
                  max(cfg.oracle_budget, 1), 1, model, constraints)
    if hit is None:
        raise WarmStartFailureError(
            f"no feasible appended input within {max(cfg.oracle_budget, 1)} samples")
    return _shifted(prev, hit[0][0], model, hit[1][1])


def _shifted(prev: SolveResult, appended: np.ndarray, model: PlantModel,
             final: Optional[np.ndarray] = None) -> Plan:
    """prev's plan shifted with ``appended`` last; if its plan carries prev.states
    from this model, so does the shift, ending in ``final`` (else stepped)."""
    if not (isinstance(prev.plan, _SteppedPlan) and prev.plan.model is model
            and prev.plan.states is prev.states):
        return shift_plan(prev.plan, appended)
    appended = as_vector(appended, model.m, "appended input")[np.newaxis]
    if final is None:
        final = model.batch_step(prev.states[-1:], appended)[0]
    return _SteppedPlan(np.vstack([prev.plan.inputs[1:], appended]),
                        _frozen(np.vstack([prev.states[1:], final])), model)


def closed_loop(model: PlantModel, constraints: ConstraintSpec, cost: CostSpec,
                cfg: SolverConfig, x0: np.ndarray, steps: int) -> RunLog:
    """Simulate the receding-horizon loop for ``steps`` applied inputs.

    The first step starts from ``cfg.initial_plan`` when one is given, else
    from a random oracle, optionally improving it (without improvement, the
    period is the same solve with no samples, which certifies and prices
    the warm start); every later step shifts the previous solution into a
    warm start and improves that.  Per-step elapsed times include
    warm-start (and oracle) construction.
    """
    steps = _integer(steps, "steps", 0)
    sampler_state = SamplerState(cfg.sampler)
    states = np.empty((steps + 1, model.n), dtype=np.float64)
    states[0] = as_vector(x0, model.n, "initial state")
    records: list[StepRecord] = []
    prev: Optional[SolveResult] = None
    for k in range(steps):
        t0 = time.perf_counter()
        x = _frozen(states[k])
        if k == 0:
            warm = (cfg.initial_plan if cfg.initial_plan is not None
                    else find_oracle(x, model, constraints, cost, cfg))
        else:
            warm = make_warm_start(prev, x, model, constraints, cfg, sampler_state)
        if k == 0 and not cfg.improve_initial:
            result = _solve(x, warm, model, constraints, cost, cfg, (), sampler_state)
        else:
            result = improve_plan(x, warm, model, constraints, cost, cfg, sampler_state)
        elapsed = time.perf_counter() - t0
        u = result.plan.inputs[0].copy()
        records.append(StepRecord(k=k, state=x, applied_input=u,
                                  j_sub=result.j_sub, f_evals=result.f_evals,
                                  cost_evals=result.cost_evals,
                                  improvements=result.improvements,
                                  elapsed=elapsed, budget_hit=result.budget_hit))
        states[k + 1] = model.step(x, u)
        prev = result
    return RunLog(records=tuple(records), states=_frozen(states), termination="completed")
