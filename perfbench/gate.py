"""Correctness gate for one closed-loop episode, and the output digest.

The gate trusts nothing in the log: it re-simulates the applied inputs with
the plant's own ``step`` and demands the logged state chain bit for bit
(final state included), re-checks every state, input and the final state
against the constraint sets, and holds every period's work counters to the
closed-form prediction of ``complexity.complexity_report``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from sampled_nmpc import CostModel, RunLog, SolverConfig, complexity_report
from sampled_nmpc.models import Benchmark


def check_episode(bench: Benchmark, cfg: SolverConfig, x0: np.ndarray, periods: int,
                  log: RunLog) -> list[tuple[int, str]]:
    """Violations as (period, kind); period ``periods`` names the final state."""
    model, constraints = bench.model, bench.constraints
    if len(log.records) != periods or log.states.shape != (periods + 1, model.n):
        return [(0, "log-shape")]
    predicted = complexity_report(cfg.sample_counts, cfg.horizon, CostModel(), 1)
    violations = []
    if not np.array_equal(log.states[0], x0):
        violations.append((0, "initial-state"))
    for k, rec in enumerate(log.records):
        x, u = log.states[k], rec.applied_input
        if rec.k != k or not np.array_equal(rec.state, x):
            violations.append((k, "record-state"))
        if not constraints.state_ok(x):
            violations.append((k, "state-set"))
        if not constraints.input_ok(u):
            violations.append((k, "input-box"))
        if not np.array_equal(np.asarray(model.step(x, u), dtype=np.float64), log.states[k + 1]):
            violations.append((k, "resimulation"))
        if rec.f_evals > predicted.predicted_f_evals:
            violations.append((k, "f-evals-over-prediction"))
        if rec.cost_evals > predicted.predicted_cost_evals:
            violations.append((k, "cost-evals-over-prediction"))
        if not np.isfinite(rec.j_sub):
            violations.append((k, "cost-not-finite"))
    if not constraints.state_ok(log.states[-1]):
        violations.append((periods, "final-state-set"))
    return violations


def failed_periods(violations: list[tuple[int, str]], periods: int) -> int:
    """Distinct periods named by the violations; the final state belongs to
    the last period."""
    return len({min(k, periods - 1) for k, _ in violations})


def update_digest(digest: "hashlib._Hash", log: RunLog) -> None:
    """Fold one episode's deterministic outputs into the digest."""
    recs = log.records
    digest.update(np.ascontiguousarray(log.states).tobytes())
    digest.update(np.array([r.applied_input for r in recs], dtype=np.float64).tobytes())
    digest.update(np.array([r.j_sub for r in recs], dtype=np.float64).tobytes())
    digest.update(np.array([(r.f_evals, r.cost_evals, r.improvements) for r in recs],
                           dtype=np.int64).tobytes())
