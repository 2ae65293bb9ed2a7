"""Backward-in-horizon, sampling-based improvement of a feasible warm start,
plus warm-start construction (oracle search, receding-horizon shift) and the
closed-loop simulation driver.

One solve walks the horizon positions from the last to the first.  At each
position j it draws n_j samples from the input box and forms one candidate
plan per sample by swapping that single position in the current reference
plan.  The candidates are independent, so they are evaluated together: their
states move forward as one (n_j, n) array through ``batch_step``, each batched
step is followed by a row-wise feasibility mask, and the surviving rows are
priced by the row cost kernels.  The cheapest strictly-improving feasible
candidate (lowest sample index on ties; the reference survives ties) becomes
the reference for the next position, which is the plan the sequential
accept-if-cheaper loop would select.

Walking backwards never changes the reference before position j, so its
states and stage-cost prefix come from the warm start once; a candidate at
position j only propagates states j+1..N.  Each row's cost continues the
prefix in the left-to-right order of ``evaluate_cost``, and every kernel
gives a row the same bits as its scalar form, so the reported cost equals a
fresh ``evaluate_cost`` of the returned plan bit for bit.

Each plan is certified once, where it is built, with the row kernels that
``check_feasible`` applies.  ``find_oracle`` returns the first row of its
batched search that passes them; ``make_warm_start`` steps the shifted plan
once and checks that trajectory; a candidate the sweep accepts has passed
them on its own rows.  ``improve_plan`` also rolls out and checks the plan
it is given on entry, because it accepts plans from callers.

The time budget is polled before each position that draws samples and after
each batched step.  A position cut short keeps its reference, so an
interrupted solve still returns a feasible plan no worse than the warm start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConstraintSpec,
    CostSpec,
    Plan,
    PlantModel,
    Trajectory,
    as_vector,
    check_feasible,
    evaluate_cost,  # noqa: F401  (kept a module global, as the benchmark's tracer wraps it)
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

WARM_START_MODES = ("terminal-controller", "feasible-sample", "provided")

_ORACLE_STREAM_TAG = 1
_ORACLE_BATCH = 1024


@dataclass(frozen=True)
class SolverConfig:
    """Solve-time knobs: horizon, per-position sample counts (a scalar
    broadcasts), the sampling scheme, optional wall-clock budget in seconds,
    infeasible-suffix pruning, the random-search budget for oracle and append
    searches, and how warm starts are built.  ``lanes`` is only the p of the
    complexity bounds: every solve evaluates a position's samples as one
    batch, so the lane count never changes the computation."""

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
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.lanes < 1:
            raise ConfigError("lanes must be >= 1")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ConfigError("time_budget must be positive when set")
        if self.oracle_budget < 0:
            raise ConfigError("oracle_budget must be nonnegative")
        if self.warm_start_mode not in WARM_START_MODES:
            raise ConfigError(f"warm_start_mode must be one of {WARM_START_MODES}")
        counts = self.samples_per_step
        if np.isscalar(counts):
            counts = (int(counts),) * self.horizon
        else:
            counts = tuple(int(c) for c in counts)
        if len(counts) != self.horizon:
            raise ConfigError(
                f"samples_per_step has {len(counts)} entries for horizon {self.horizon}")
        if any(c < 0 for c in counts):
            raise ConfigError("sample counts must be nonnegative")
        object.__setattr__(self, "samples_per_step", counts)

    @property
    def sample_counts(self) -> tuple[int, ...]:
        return self.samples_per_step  # normalized to a tuple in __post_init__


@dataclass(frozen=True)
class SolveResult:
    """One solve's outcome: the improved plan, its cost, exact work counters
    (plant steps and full-cost evaluations spent on candidates), the number of
    accepted replacements, wall time and whether the budget cut the sweep."""

    plan: Plan
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


def improve_plan(x: np.ndarray, warm: Plan, model: PlantModel,
                 constraints: ConstraintSpec, cost: CostSpec, cfg: SolverConfig,
                 sampler_state: Optional[SamplerState] = None) -> SolveResult:
    """Run one backward sweep of single-position sample replacements.

    The warm start is re-verified on entry and rejected if infeasible.  The
    returned cost never exceeds the warm start's cost, and the returned plan
    is feasible even when the time budget interrupts the sweep.
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

    warm_traj = rollout(model, x, warm)
    report = check_feasible(constraints, warm_traj, warm)
    if not report.feasible:
        raise InfeasibleWarmStartError(
            f"warm start violates {report.violation_kind} at index {report.violation_index}")

    ref_inputs = warm.inputs.copy()
    ref_states = warm_traj.states
    # prefix[i] folds the warm start's stage costs 0..i-1 left to right.
    warm_stages = cost.stage_costs(np.arange(big_n), ref_states[:big_n], ref_inputs)
    prefix = np.empty(big_n + 1, dtype=np.float64)
    prefix[0] = 0.0
    for i in range(big_n):
        prefix[i + 1] = prefix[i] + warm_stages[i]
    j_ref = prefix[big_n] + cost.terminal_cost(ref_states[big_n])

    f_evals = 0
    cost_evals = 0
    improvements = 0
    budget_hit = False
    for j in range(big_n - 1, -1, -1):
        n_j = cfg.sample_counts[j]
        if n_j == 0:
            continue
        if deadline is not None and time.perf_counter() >= deadline:
            budget_hit = True
            break
        samples = draw_samples(sampler_state, constraints.input_box, n_j)
        steps = big_n - j
        # Row b's input sequence from position j: its sample, then the reference.
        inputs = np.empty((n_j, steps, model.m), dtype=np.float64)
        inputs[:, 0] = samples
        inputs[:, 1:] = ref_inputs[j + 1:]
        states = np.empty((n_j, steps + 1, model.n), dtype=np.float64)
        states[:, 0] = ref_states[j]
        feasible = constraints.input_box.contains_rows(samples)  # in-box by construction
        live = np.flatnonzero(feasible) if cfg.pruning else np.arange(n_j)
        xs = states[live, 0]
        for k in range(1, steps + 1):
            if live.size == 0:
                break
            xs = model.batch_step(xs, inputs[live, k - 1])
            f_evals += live.size
            states[live, k] = xs
            ok = (constraints.states_ok_rows(xs) if k < steps
                  else constraints.terminal_ok_rows(xs))
            if cfg.pruning:
                live = live[ok]
                xs = xs[ok]
            else:
                feasible &= ok
            if deadline is not None and time.perf_counter() >= deadline:
                budget_hit = True
                break
        if budget_hit:
            break
        if live.size == 0:
            continue
        # Price the rows still live (with pruning, exactly the feasible ones)
        # in one call, then continue the prefix fold in evaluate_cost's order.
        stages = cost.stage_costs(np.tile(np.arange(j, big_n), live.size),
                                  states[live, :steps].reshape(-1, model.n),
                                  inputs[live].reshape(-1, model.m)).reshape(live.size, steps)
        totals = np.full(live.size, prefix[j])
        for k in range(steps):
            totals = totals + stages[:, k]
        totals = totals + cost.terminal_costs(states[live, steps])
        cost_evals += live.size
        better = np.flatnonzero(feasible[live] & (totals < j_ref))
        if better.size:
            win = better[np.argmin(totals[better])]  # first minimum: lowest sample index
            ref_inputs[j] = samples[live[win]]
            j_ref = totals[win]
            improvements += 1

    return SolveResult(plan=Plan(ref_inputs), j_sub=float(j_ref), f_evals=f_evals,
                       cost_evals=cost_evals, improvements=improvements,
                       elapsed=time.perf_counter() - t_start, budget_hit=budget_hit)


def _oracle_stream(cfg: SolverConfig) -> SamplerState:
    # Random search always draws from its own seed-derived random stream, even
    # when improvement sampling uses grid or Halton points: the grid repeats
    # the same sequence forever and would never explore new candidates.
    return SamplerState(SamplerConfig(scheme="random",
                                      seed=derive_seed(cfg.sampler.seed, _ORACLE_STREAM_TAG)))


def find_oracle(x: np.ndarray, model: PlantModel, constraints: ConstraintSpec,
                cost: CostSpec, cfg: SolverConfig) -> Plan:
    """Draw random full input sequences until one is feasible from x.

    Sequences are searched in batches; the first row whose states pass the
    state set and whose end state passes the terminal set is returned.  That
    search is the plan's certificate: it runs ``check_feasible``'s row
    kernels on the bits a rollout of the plan gives, and the sampled inputs
    lie in the input box by construction.  Deterministic for a given seed;
    raises NoOracleError when the budget is exhausted (including a budget of
    zero).
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
    while remaining > 0:
        batch = min(remaining, _ORACLE_BATCH)
        remaining -= batch
        flat = draw_samples(stream, constraints.input_box, batch * big_n)
        sequences = flat.reshape(batch, big_n, model.m)
        hit = _first_feasible_sequence(x, sequences, model, constraints)
        if hit is not None:
            return Plan(sequences[hit])
    raise NoOracleError(f"no feasible sequence within {cfg.oracle_budget} random draws")


def _first_feasible_sequence(x: np.ndarray, sequences: np.ndarray,
                             model: PlantModel, constraints: ConstraintSpec) -> Optional[int]:
    """Index of the first row of (B, N, m) sequences feasible from x, else None."""
    batch, big_n, _ = sequences.shape
    alive = np.ones(batch, dtype=bool)
    states = np.broadcast_to(x, (batch, x.shape[0])).copy()
    # Dead rows keep stepping (cheaper than compaction); silence any overflow
    # they produce, the comparisons below already exclude them.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(big_n):
            alive &= constraints.states_ok_rows(states)
            if not alive.any():
                return None
            states = model.batch_step(states, sequences[:, i, :])
        alive &= constraints.terminal_ok_rows(states)
    hits = np.nonzero(alive)[0]
    return int(hits[0]) if hits.size else None


def make_warm_start(prev: SolveResult, x_new: np.ndarray, model: PlantModel,
                    constraints: ConstraintSpec, cfg: SolverConfig,
                    sampler_state: Optional[SamplerState] = None) -> Plan:
    """Shift the previous plan and append a new last input.

    Mode 'terminal-controller' appends the terminal law evaluated at the
    previous predicted end state; 'feasible-sample' appends the first sampled
    input that steps that end state into the terminal set; 'provided' (which
    only affects the initial step) falls back to the terminal law when the
    plant has one.  The shifted prefix is stepped once from x_new and the
    appended input's successor ends the trajectory; that trajectory is
    checked once, and a violation raises WarmStartFailureError.
    """
    x_new = as_vector(x_new, model.n, "state")
    plan_prev = prev.plan
    big_n = plan_prev.horizon
    mode = cfg.warm_start_mode
    if mode == "provided":
        mode = "terminal-controller" if model.terminal_law is not None else "feasible-sample"

    # Row i is the state i steps along the shifted plan from x_new; row N-1
    # equals the previous solve's predicted end state.
    states = np.empty((big_n + 1, model.n), dtype=np.float64)
    states[0] = x_new
    for i in range(1, big_n):
        states[i] = model.step(states[i - 1], plan_prev.inputs[i])
    end_state = states[big_n - 1]

    if mode == "terminal-controller":
        if model.terminal_law is None:
            raise NoTerminalLawError(f"plant {model.name or '?'} has no terminal law")
        appended = as_vector(model.terminal_law(end_state), model.m, "terminal input")
        states[big_n] = model.step(end_state, appended)
    else:
        if sampler_state is None:
            sampler_state = SamplerState(cfg.sampler)
        remaining = max(cfg.oracle_budget, 1)
        while remaining > 0:
            batch = min(remaining, 256)
            remaining -= batch
            appends = draw_samples(sampler_state, constraints.input_box, batch)
            finals = model.batch_step(np.broadcast_to(end_state, (batch, model.n)).copy(), appends)
            hits = np.flatnonzero(constraints.terminal_ok_rows(finals))
            if hits.size:
                break
        else:
            raise WarmStartFailureError(
                f"no feasible appended input within {cfg.oracle_budget} samples")
        appended = appends[hits[0]]
        states[big_n] = finals[hits[0]]

    candidate = shift_plan(plan_prev, appended)
    report = check_feasible(constraints, Trajectory(states), candidate)
    if not report.feasible:
        raise WarmStartFailureError(
            f"{mode} warm start violates {report.violation_kind} "
            f"at index {report.violation_index}")
    return candidate


def closed_loop(model: PlantModel, constraints: ConstraintSpec, cost: CostSpec,
                cfg: SolverConfig, x0: np.ndarray, steps: int) -> RunLog:
    """Simulate the receding-horizon loop for ``steps`` applied inputs.

    The first step seeds the solver with the provided plan (mode 'provided')
    or a random oracle, optionally improving it (without improvement, a
    solve with no samples certifies and prices it); every later step shifts
    the previous solution into a warm start and improves that.  Per-step
    elapsed times include warm-start (and oracle) construction.
    """
    x = as_vector(x0, model.n, "initial state")
    if steps < 0:
        raise ContractViolationError("steps must be nonnegative")
    sampler_state = SamplerState(cfg.sampler)
    states = np.empty((steps + 1, model.n), dtype=np.float64)
    states[0] = x
    records: list[StepRecord] = []
    prev: Optional[SolveResult] = None
    for k in range(steps):
        t0 = time.perf_counter()
        if k == 0:
            if cfg.warm_start_mode == "provided":
                if cfg.initial_plan is None:
                    raise ConfigError("warm_start_mode 'provided' requires initial_plan")
                warm = cfg.initial_plan
            else:
                warm = find_oracle(x, model, constraints, cost, cfg)
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
