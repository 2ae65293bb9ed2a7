"""Backward-in-horizon, sampling-based improvement of a feasible warm start,
plus warm-start construction (oracle search, receding-horizon shift) and the
closed-loop simulation driver.

One solve walks the horizon positions from the last to the first.  At each
position j it draws n_j samples from the input box and forms one candidate
plan per sample by swapping that single position in the current reference
plan.  The cheapest strictly-improving feasible candidate (lowest sample
index on ties; the reference survives ties) becomes the reference for the
next position.

That sequential sweep is computed a window of positions at a time.  Every
position's samples are drawn up front, in the sweep's order.  A window of
consecutive pending positions is evaluated against the current reference:
all its candidate rows step together from the window's lowest position j0,
starting at the reference state there, one ``batch_step`` call per time
index to the horizon's end, and are then masked once: one row-wise call for
the states before the end and one for the end states (``_step_rows``, which
the oracle search shares).  Above its own position a row holds the
reference input, and every kernel gives a row the same bits whatever the
batch around it, so up to that position the row repeats the reference
states bit for bit.  A position that accepts no sample leaves the
reference unchanged, so the highest position in the window with a cheaper
row decides it and every window position above it exactly as the sequential
sweep would; the next window starts below it, against the new reference.
The window size comes from the solve's own acceptance rate
(``_window_size``); any size gives the same result, and a size of one is the
sequential sweep.

Every cost is one call of ``core.fold_costs``, which adds stage costs left to
right from a start stage and a base value and then the terminal cost: the
warm start's from stage 0, which also gives its prefix (the running sum
before each stage), and a window's candidates from j0 with the base
prefix[j0].  Walking backwards never changes the reference below an accepted
position, so that prefix serves every window, and a candidate's total is the
sum ``evaluate_cost`` forms for its plan, bit for bit.

``f_evals``, ``cost_evals`` and ``improvements`` are the sequential sweep's
counts, taken from each decided row's last round; ``pruning`` only picks
the counting rule.  With it, a candidate at position j costs the steps from
j to its first violating state; without, N - j steps and one cost
evaluation.  Either way every row steps to the horizon's end.  The plant
steps made beyond a rolled out warm start's N are bounded through K_max,
the largest window used.  A round that holds position j without deciding
it accepts a position above j, and the next round starts below that one.
A window spans at most K_max drawn positions, so the rounds holding j start
at distinct places among j and the K_max - 1 drawn positions above it: at
most K_max rounds.  Each steps j's rows exactly N - j0 times (fewer only
when the budget cuts it), and j0 lies at most K_max - 1 drawn positions
below j.  So a solve makes at most K_max * sum_j n_j (N - j_low)
row steps, where j_low is the drawn position K_max - 1 places after j in
the sweep's order, or the last one; with every n_j > 0 that is at most
K_max * sum_j n_j (N - j + K_max - 1).

Feasibility is tested with the row kernels that ``check_feasible``
applies, two mask calls per window or oracle batch.  ``improve_plan``'s
entry ``check_feasible`` of the warm start's trajectory is the one
certificate of every warm start, and the sweep's masks certify each
candidate it accepts.  A plan built here carries the trajectory its
model stepped: the oracle's batch row, a solve's reference, or the previous
prediction shifted plus one step of the appended input.  The entry check
takes it when the model object is the same and x is its first state bit for
bit, and rolls the plan out otherwise (a caller's plan, another model, a
measured state off the prediction); every kernel gives a row the same bits
whatever the batch, so the two agree bit for bit.

The time budget is polled before each draw and after each batched step.
A window cut short decides none of its positions, so they keep the
reference, and a budget that expires during the draws returns the warm
start: an interrupted solve still returns a feasible plan no worse than the
warm start, and its counters cover the decided positions only.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConstraintSpec,
    CostSpec,
    Plan,
    PlantModel,
    _frozen,
    _is_integer,
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
from .sampling import SamplerConfig, SamplerState, derive_seed, draw_samples

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


@dataclass(frozen=True)
class SolverConfig:
    """Solve-time knobs: horizon, per-position sample counts (a scalar
    broadcasts), the sampling scheme, optional wall-clock budget in seconds,
    whether the counters stop a candidate's steps at its first violating
    state (``pruning``, only a counting rule: every candidate steps to the
    horizon's end), the random-search budget for oracle and append searches,
    and how warm starts are built: ``initial_plan``, when given, is the first
    period's warm start in place of the oracle search, and
    ``warm_start_mode`` picks how each later one appends its last input.
    ``lanes`` is only the p of the complexity bounds: every solve evaluates
    its samples in batches, so the lane count never changes the
    computation."""

    horizon: int
    samples_per_step: int | Sequence[int] = 10
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    lanes: int = 1
    time_budget: Optional[float] = None
    pruning: bool = True
    oracle_budget: int = 100_000
    warm_start_mode: str = "terminal-controller"
    improve_initial: bool = True
    initial_plan: Optional[Plan] = None

    def __post_init__(self):
        for name in ("horizon", "lanes", "oracle_budget"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.lanes < 1:
            raise ConfigError("lanes must be >= 1")
        if not (isinstance(self.pruning, bool) and isinstance(self.improve_initial, bool)):
            raise ConfigError("pruning and improve_initial must be True or False")
        budget, real = self.time_budget, isinstance(self.time_budget, (float, np.floating))
        if budget is not None and not ((real or _is_integer(budget)) and budget > 0):  # NaN too
            raise ConfigError(f"time_budget must be a positive number when set, got {budget!r}")
        if self.initial_plan is not None and not isinstance(self.initial_plan, Plan):
            raise ConfigError(f"initial_plan must be a Plan, got {self.initial_plan!r}")
        if self.oracle_budget < 0:
            raise ConfigError("oracle_budget must be nonnegative")
        if self.warm_start_mode not in WARM_START_MODES:
            raise ConfigError(f"warm_start_mode must be one of {WARM_START_MODES}")
        counts = self.samples_per_step
        try:
            counts = (counts,) * self.horizon if np.isscalar(counts) else tuple(counts)
        except TypeError:  # not iterable (None, a 0-d array): rejected below
            counts = (counts,)
        if not all(_is_integer(c) for c in counts):
            raise ConfigError(f"samples_per_step must be integers, got {self.samples_per_step!r}")
        if len(counts) != self.horizon:
            raise ConfigError(
                f"samples_per_step has {len(counts)} entries for horizon {self.horizon}")
        if any(c < 0 for c in counts):
            raise ConfigError("sample counts must be nonnegative")
        object.__setattr__(self, "samples_per_step", tuple(int(c) for c in counts))

    @property
    def sample_counts(self) -> tuple[int, ...]:
        return self.samples_per_step  # normalized to a tuple in __post_init__


@dataclass(frozen=True)
class SolveResult:
    """One solve's outcome: the improved plan, its predicted (N+1, n)
    trajectory from the solve's state (read-only), its cost, the work
    counters of the sequential sweep (plant steps and full-cost evaluations
    it spends on candidates, whatever window sizes computed it), the number
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


@dataclass(frozen=True)
class StepRecord:
    """Per-closed-loop-step log row (state BEFORE applying the input)."""

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
    evaluated a window of positions at a time (see the module docstring).

    The warm start's trajectory from x (the one it carries, see the module
    docstring, else a rollout) is checked on entry, its one certificate, and
    rejected with InfeasibleWarmStartError if infeasible; those states and
    ``fold_costs`` give the reference and its cost prefix.  Each round steps
    all candidate rows of one window from its lowest position and prices them
    with one ``fold_costs`` call; the highest position with a strictly cheaper
    feasible row accepts its cheapest, and the next window starts below it.
    The returned cost never exceeds the warm start's cost, and the returned
    plan, which carries the returned states, is feasible even when the time
    budget interrupts the sweep.
    """
    t_start = time.perf_counter()
    deadline = None if cfg.time_budget is None else t_start + cfg.time_budget
    big_n = cfg.horizon
    if warm.horizon != big_n:
        raise ContractViolationError(f"warm start has horizon {warm.horizon}, config says {big_n}")
    if cost.horizon != big_n:
        raise ContractViolationError("cost horizon disagrees with solver horizon")
    x = as_vector(x, model.n, "state")
    if sampler_state is None:
        sampler_state = SamplerState(cfg.sampler)

    carried = (isinstance(warm, _SteppedPlan) and warm.model is model
               and warm.states[0].tobytes() == x.tobytes())  # -0.0 is not 0.0
    warm_states = warm.states if carried else rollout(model, x, warm)
    report = check_feasible(constraints, warm_states, warm)
    if not report.feasible:
        raise InfeasibleWarmStartError(
            f"warm start violates {report.violation_kind} at index {report.violation_index}")

    ref_inputs = warm.inputs.copy()
    ref_states = warm_states.copy()
    # prefix[i] is the warm start's stage costs 0..i-1 added left to right.
    *prefix, j_ref = fold_costs(cost, 0, 0.0, ref_states[:, np.newaxis],
                                ref_inputs[:, np.newaxis])[:, 0]

    counts = cfg.sample_counts
    positions = [j for j in range(big_n - 1, -1, -1) if counts[j]]
    drawn = []
    budget_hit = False
    for j in positions:
        if deadline is not None and time.perf_counter() >= deadline:
            budget_hit = True
            break
        drawn.append(draw_samples(sampler_state, constraints.input_box, counts[j]))

    f_evals = 0
    cost_evals = 0
    improvements = 0
    if drawn and not budget_hit:
        samples = np.concatenate(drawn)
        if not constraints.input_box.contains_rows(samples).all():
            raise ContractViolationError("draw_samples returned an input outside the input box")
        # One row per sample, highest position first; block[i] is the first
        # row of positions[i].  viol[b] is the index of row b's first
        # violating state in its latest round, N + 1 while it has none.
        sizes = [counts[j] for j in positions]
        block = [0, *itertools.accumulate(sizes)]
        pos = np.repeat(positions, sizes)
        viol = np.full(pos.size, big_n + 1)

        lo = 0  # positions[:lo] are decided
        while lo < len(positions):
            hi = min(len(positions), lo + _window_size(lo, improvements))
            j0 = positions[hi - 1]
            rows = slice(block[lo], block[hi])
            width = block[hi] - block[lo]
            # Time-major arrays from time j0, where index k is time j0 + k.
            # Row b holds the reference input except at pos[b], so up to
            # there it repeats the reference states bit for bit.
            us = np.repeat(ref_inputs[j0:, np.newaxis], width, axis=1)
            us[pos[rows] - j0, np.arange(width)] = samples[rows]
            xs = np.empty((big_n + 1 - j0, width, model.n), dtype=np.float64)
            xs[0] = ref_states[j0]
            first_bad = _step_rows(xs, us, model, constraints, deadline)
            if first_bad is None:
                budget_hit = True
                break
            viol[rows] = j0 + first_bad
            done = np.flatnonzero(viol[rows] > big_n)
            win = None
            if done.size:
                totals = fold_costs(cost, j0, prefix[j0], xs.take(done, 1), us.take(done, 1))[-1]
                better = np.flatnonzero(totals < j_ref)
                if better.size:
                    # The highest position with a cheaper row accepts its
                    # first minimum: lowest sample index on ties.
                    done_pos = pos[rows][done]
                    j_a = done_pos[better[0]]
                    better = better[done_pos[better] == j_a]
                    win = better[np.argmin(totals[better])]
            if win is None:
                lo = hi
                continue
            # Positions down to j_a are decided; the next window starts below.
            lo = positions.index(j_a, lo) + 1
            ref_inputs[j_a] = us[j_a - j0, done[win]]
            ref_states[j_a + 1:] = xs[j_a + 1 - j0:, done[win]]
            j_ref = totals[win]
            improvements += 1

        # The counters are the sequential sweep's, over the decided positions.
        swept = slice(0, block[lo])
        if cfg.pruning:
            f_evals = int(np.sum(np.minimum(viol[swept], big_n) - pos[swept]))
            cost_evals = int(np.count_nonzero(viol[swept] > big_n))
        else:
            f_evals = int(np.sum(big_n - pos[swept]))
            cost_evals = block[lo]

    ref_states.setflags(write=False)
    return SolveResult(plan=_SteppedPlan(ref_inputs, ref_states, model), states=ref_states,
                       j_sub=float(j_ref), f_evals=f_evals, cost_evals=cost_evals,
                       improvements=improvements, elapsed=time.perf_counter() - t_start,
                       budget_hit=budget_hit)


def _window_size(decided: int, accepted: int) -> int:
    """Positions to evaluate in the next round: the positions decided per
    acceptance so far, smoothed, so that a round usually spans about one
    acceptance.  Any value of at least 1 gives the same result."""
    return -(-(decided + 2) // (accepted + 1))


def _step_rows(xs: np.ndarray, us: np.ndarray, model: PlantModel,
               constraints: ConstraintSpec, deadline: Optional[float]) -> Optional[np.ndarray]:
    """Step the time-major rows from xs[0] through inputs us (T, B, m) into
    xs[1:] and return each row's first violating index among states 1..T
    (state T against the terminal set), T + 1 where it has none; None when
    the deadline passes, polled after each step."""
    big_t, width, n = us.shape[0], us.shape[1], xs.shape[2]
    # Every row steps to its end; silence any overflow of rows that left the
    # state set, the masks below exclude them.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(big_t):
            xs[k + 1] = model.batch_step(xs[k], us[k])
            if deadline is not None and time.perf_counter() >= deadline:
                return None
        ok = np.zeros((big_t + 1, width), dtype=bool)  # row T: a violation for every row
        ok[:big_t - 1] = constraints.states_ok_rows(xs[1:big_t].reshape(-1, n)).reshape(-1, width)
        ok[big_t - 1] = constraints.terminal_ok_rows(xs[big_t])
    return ok.argmin(axis=0) + 1


def _oracle_stream(cfg: SolverConfig) -> SamplerState:
    # Random search always draws from its own seed-derived random stream, even
    # when improvement sampling uses grid or Halton points: the grid repeats
    # the same sequence forever and would never explore new candidates.
    return SamplerState(SamplerConfig(scheme="random",
                                      seed=derive_seed(cfg.sampler.seed, _ORACLE_STREAM_TAG)))


def find_oracle(x: np.ndarray, model: PlantModel, constraints: ConstraintSpec,
                cost: CostSpec, cfg: SolverConfig) -> Plan:
    """Draw random full input sequences until one is feasible from x.

    Sequences come from the oracle's own random stream and are searched in
    batches, a probe of ``_ORACLE_PROBE`` sequences and then batches of
    ``_ORACLE_BATCH``, each continuing the stream; the first sequence in
    stream order whose states pass the state set and whose end state passes
    the terminal set is returned, so the result does not depend on the
    batching.  Each batch steps every sequence the whole horizon and masks
    all its states at once; the plan carries its row's states, the bits a
    rollout gives, which ``improve_plan``'s entry check certifies.  Sampled
    inputs lie in the input box by construction.  Deterministic for a given
    seed; raises NoOracleError when ``cfg.oracle_budget`` sequences hold no
    feasible one (including a budget of zero).
    """
    del cost  # the oracle only needs feasibility
    x = as_vector(x, model.n, "state")
    if cfg.oracle_budget < 1:
        raise NoOracleError("oracle budget is zero")
    if not constraints.state_ok(x):
        raise NoOracleError(f"initial state {x} violates the state constraints")
    big_n = cfg.horizon
    stream = _oracle_stream(cfg)
    remaining = cfg.oracle_budget
    sizes = itertools.chain([_ORACLE_PROBE], itertools.repeat(_ORACLE_BATCH))
    while remaining > 0:
        batch = min(remaining, next(sizes))
        remaining -= batch
        flat = draw_samples(stream, constraints.input_box, batch * big_n)
        sequences = flat.reshape(batch, big_n, model.m)
        xs = np.empty((big_n + 1, batch, model.n), dtype=np.float64)
        xs[0] = x
        first_bad = _step_rows(xs, sequences.transpose(1, 0, 2), model, constraints, None)
        hits = np.flatnonzero(first_bad > big_n)
        if hits.size:
            return _SteppedPlan(sequences[hits[0]], _frozen(xs[:, hits[0]].copy()), model)
    raise NoOracleError(f"no feasible sequence within {cfg.oracle_budget} random draws")


def make_warm_start(prev: SolveResult, x_new: np.ndarray, model: PlantModel,
                    constraints: ConstraintSpec, cfg: SolverConfig,
                    sampler_state: Optional[SamplerState] = None) -> Plan:
    """Shift the previous plan and append a new last input at the previous
    predicted end state ``prev.states[-1]``.

    Mode 'terminal-controller' appends the terminal law there;
    'feasible-sample' appends the first sampled input that steps it into the
    terminal set, raising WarmStartFailureError when the search budget runs
    out.  After a solve with this model object the plan carries
    ``prev.states[1:]`` and the appended input's step, one one-row
    ``batch_step`` for the terminal law.  x_new is the state the plan will be
    certified from: ``improve_plan`` raises InfeasibleWarmStartError if the
    shift is infeasible from x_new.
    """
    as_vector(x_new, model.n, "state")
    end = prev.states[-1]
    if cfg.warm_start_mode == "terminal-controller":
        if model.terminal_law is None:
            raise NoTerminalLawError(f"plant {model.name or '?'} has no terminal law")
        return _shifted(prev, model.terminal_law(end), model)
    if sampler_state is None:
        sampler_state = SamplerState(cfg.sampler)
    remaining = max(cfg.oracle_budget, 1)
    while remaining > 0:
        batch = min(remaining, 256)
        remaining -= batch
        appends = draw_samples(sampler_state, constraints.input_box, batch)
        finals = model.batch_step(np.broadcast_to(end, (batch, model.n)).copy(), appends)
        hits = np.flatnonzero(constraints.terminal_ok_rows(finals))
        if hits.size:
            return _shifted(prev, appends[hits[0]], model, finals[hits[0]])
    raise WarmStartFailureError(f"no feasible appended input within {cfg.oracle_budget} samples")


def _shifted(prev: SolveResult, appended: np.ndarray, model: PlantModel,
             final: Optional[np.ndarray] = None) -> Plan:
    """prev's plan shifted with ``appended`` last; if its plan carries prev.states
    from this model, so does the shift, ending in ``final`` (else stepped)."""
    plan = shift_plan(prev.plan, appended)
    if not (isinstance(prev.plan, _SteppedPlan) and prev.plan.model is model
            and prev.plan.states is prev.states):
        return plan
    if final is None:
        final = model.batch_step(prev.states[-1:], plan.inputs[-1:])[0]
    return _SteppedPlan(plan.inputs, _frozen(np.vstack([prev.states[1:], final])), model)


def closed_loop(model: PlantModel, constraints: ConstraintSpec, cost: CostSpec,
                cfg: SolverConfig, x0: np.ndarray, steps: int) -> RunLog:
    """Simulate the receding-horizon loop for ``steps`` applied inputs.

    The first step starts from ``cfg.initial_plan`` when one is given, else
    from a random oracle, optionally improving it (without improvement, a
    solve with no samples certifies and prices it); every later step shifts
    the previous solution into a warm start and improves that.  Per-step
    elapsed times include warm-start (and oracle) construction.
    """
    x = as_vector(x0, model.n, "initial state")
    if not _is_integer(steps) or steps < 0:
        raise ContractViolationError(f"steps must be a nonnegative integer, got {steps!r}")
    sampler_state = SamplerState(cfg.sampler)
    states = np.empty((steps + 1, model.n), dtype=np.float64)
    states[0] = x
    records: list[StepRecord] = []
    prev: Optional[SolveResult] = None
    for k in range(steps):
        t0 = time.perf_counter()
        if k == 0:
            warm = (cfg.initial_plan if cfg.initial_plan is not None
                    else find_oracle(x, model, constraints, cost, cfg))
            solve_cfg = cfg if cfg.improve_initial else replace(cfg, samples_per_step=0)
        else:
            warm = make_warm_start(prev, x, model, constraints, cfg, sampler_state)
            solve_cfg = cfg
        result = improve_plan(x, warm, model, constraints, cost, solve_cfg, sampler_state)
        elapsed = time.perf_counter() - t0
        u = result.plan.inputs[0].copy()
        records.append(StepRecord(k=k, state=x.copy(), applied_input=u,
                                  j_sub=result.j_sub, f_evals=result.f_evals,
                                  cost_evals=result.cost_evals,
                                  improvements=result.improvements,
                                  elapsed=elapsed, budget_hit=result.budget_hit))
        x = np.asarray(model.step(x, u), dtype=np.float64)
        states[k + 1] = x
        prev = result
    return RunLog(records=tuple(records), states=states, termination="completed")
