"""The paper's guarantees as properties over random certified plants.

A linear plant x+ = A x + B u with its LQR gain K and the discrete
algebraic Riccati solution P has exact terminal ingredients: V_f(x) = x' P x
decreases along u = K x by exactly the stage cost, V_f(f(x, K x)) - V_f(x) =
-l(x, K x).  Its terminal set is the largest level set of V_f inside the
state box whose feedback stays in the input box, in closed form from P^-1
(Chen & Allgoewer, Automatica 34(10), 1998; Mayne et al., Automatica 36(6),
2000).  With terminal-controller warm starts, every closed loop on such a
plant must keep every plan feasible, never end a solve above its warm start,
and decrease the cost by at least the stage cost of each applied input
(Scokaert, Mayne & Rawlings, IEEE TAC 44(3), 1999).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sampled_nmpc import (
    BoxSet,
    ConstraintSpec,
    CostSpec,
    EllipsoidSet,
    PlantModel,
    SamplerConfig,
    SamplerState,
    SolverConfig,
    check_feasible,
    evaluate_cost,
    find_oracle,
    improve_plan,
    make_warm_start,
    rollout,
)
from sampled_nmpc.errors import NoOracleError

linalg = pytest.importorskip("scipy.linalg")

STATE_BOUND = 5.0
PERIODS = 12
# The decrease holds in exact arithmetic; rounding moves it by a few ulps of J.
DECREASE_TOL = 1e-12


def linear_map(matrix):
    """x -> matrix x over stacked rows, one column at a time, added left to
    right: no ``@``, so a row's bits do not depend on the batch around it."""
    coeffs = matrix.tolist()

    def apply(*blocks):
        cols = [block[:, k] for block in blocks for k in range(block.shape[1])]
        out = np.empty((cols[0].shape[0], len(coeffs)))
        for i, row in enumerate(coeffs):
            acc = row[0] * cols[0]
            for c, col in zip(row[1:], cols[1:]):
                acc = acc + c * col
            out[:, i] = acc
        return out

    return apply


def certified_plant(seed, m, horizon):
    """A random 2-state plant with m inputs, a +-5 state box, a +-1 input
    box, its LQR terminal law and cost, and its largest terminal level set,
    or None where the Riccati equation has no usable solution."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.2, 1.2, (2, 2))
    b = rng.uniform(-1.0, 1.0, (2, m))
    q = np.diag(rng.uniform(0.5, 2.0, 2))
    r = np.diag(rng.uniform(0.5, 2.0, m))
    try:
        p = linalg.solve_discrete_are(a, b, q, r)
    except (ValueError, np.linalg.LinAlgError):
        return None
    p = (p + p.T) / 2
    if not (np.isfinite(p).all() and np.linalg.eigvalsh(p).min() > 0):
        return None
    k = -np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    p_inv = np.linalg.inv(p)
    # max of e_i' x over x' P x <= c is sqrt(c (P^-1)_ii), and of k_j x is
    # sqrt(c k_j P^-1 k_j'); a 1% margin keeps the boundary off by rounding.
    level = 0.99 * min(*(STATE_BOUND ** 2 / np.diag(p_inv)), *(1.0 / np.diag(k @ p_inv @ k.T)))
    step, law = linear_map(np.hstack([a, b])), linear_map(k)
    model = PlantModel(n=2, m=m, batch_step=step, equilibrium=(np.zeros(2), np.zeros(m)),
                       terminal_law=lambda x: law(x[np.newaxis])[0], name="random-lqr")
    constraints = ConstraintSpec(BoxSet(-STATE_BOUND * np.ones(2), STATE_BOUND * np.ones(2)),
                                 BoxSet(-np.ones(m), np.ones(m)),
                                 terminal=EllipsoidSet(np.zeros(2), p, level))
    return model, constraints, CostSpec.constant(q, r, p, horizon)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2), st.integers(3, 14), st.data())
@settings(max_examples=80, deadline=None)
def test_every_closed_loop_keeps_the_guarantees(seed, m, horizon, data):
    plant = certified_plant(seed, m, horizon)
    assume(plant is not None)
    model, constraints, cost = plant
    counts = data.draw(st.lists(st.integers(1, 19), min_size=horizon, max_size=horizon))
    scheme = data.draw(st.sampled_from(["grid", "random", "halton"]))
    x = np.random.default_rng(seed + 1).uniform(-STATE_BOUND, STATE_BOUND, 2)
    cfg = SolverConfig(horizon=horizon, samples_per_step=counts,
                       sampler=SamplerConfig(scheme=scheme, seed=seed), oracle_budget=2048)
    try:
        warm = find_oracle(x, model, constraints, cost, cfg)
    except NoOracleError:
        assume(False)
    stream = SamplerState(cfg.sampler)
    prev = None
    for _ in range(PERIODS):
        if prev is not None:
            warm = make_warm_start(prev, x, model, constraints, cfg, stream)
        result = improve_plan(x, warm, model, constraints, cost, cfg, stream)
        states = rollout(model, x, result.plan)
        # Every plan is feasible, priced exactly, and no worse than its warm start,
        # which the result prices exactly too.
        assert check_feasible(constraints, states, result.plan).feasible
        assert result.j_sub == evaluate_cost(cost, states, result.plan)
        assert result.j_warm == evaluate_cost(cost, rollout(model, x, warm), warm)
        assert result.j_sub <= result.j_warm
        # An accepted replacement is strictly cheaper than its reference, so
        # it changes its own position's input; no other position changes.
        changed = np.any(result.plan.inputs != warm.inputs, axis=1)
        assert result.improvements == np.count_nonzero(changed)
        u = result.plan.inputs[0]
        if prev is not None:
            # J(k) <= J(k - 1) - l(x_{k-1}, u_{k-1}), up to rounding.
            assert result.j_sub <= prev.j_sub - stage + DECREASE_TOL * prev.j_sub
        stage = cost.stage_cost(0, x, u)
        x = model.step(x, u)
        prev = result
