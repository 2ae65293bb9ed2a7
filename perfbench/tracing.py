"""Span tracing from outside the library.

Spans are recorded only here, around calls into public functions: a
``PlantModel`` rebuilt with timed ``step``/``batch_step``/``terminal_law``,
``ConstraintSpec`` and ``CostSpec`` subclasses with timed methods, and timed
stand-ins for the ``solver`` module's globals that ``closed_loop`` and the
sweep call.  A span holds its layer name, start, end, parent span, an amount
(points or rows where the layer has one) and the (episode, period) it belongs
to.  Spans stay in memory and are saved at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from sampled_nmpc import ConstraintSpec, CostSpec, solver
from sampled_nmpc.models import Benchmark

LAYERS = (
    "sampling.draw", "models.step", "models.batch_step", "models.terminal_law",
    "core.feasible", "core.feasible_rows", "core.cost", "core.certify",
    "solver.improve", "solver.warm_start", "solver.oracle",
)

# Layer of each solver-module global that the traced run replaces.
SOLVER_GLOBALS = {
    "draw_samples": "sampling.draw",
    "rollout": "core.certify",
    "check_feasible": "core.certify",
    "evaluate_cost": "core.certify",
    "improve_plan": "solver.improve",
    "make_warm_start": "solver.warm_start",
    "find_oracle": "solver.oracle",
}


class Tracer:
    """In-memory span store.  Single-threaded: the benchmark runs ``lanes=1``.

    A call into a layer from inside a span of the same layer (say
    ``terminal_ok`` falling back to ``state_ok``) is folded into the outer
    span.  A plant step made outside every span is ``closed_loop`` applying
    the input, which ends the current period.
    """

    def __init__(self):
        self.layer = array("b")
        self.parent = array("q")
        self.amount = array("q")
        self.episode = array("l")
        self.period = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current_episode = 0
        self.current_period = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        for name in ("layer", "parent", "amount", "episode", "period", "start", "end"):
            del getattr(self, name)[:]
        self.begin_episode(0)

    def begin_episode(self, episode: int) -> None:
        self.current_episode = episode
        self.current_period = 0

    def wrap(self, layer: str, fn: Callable, amount: Optional[Callable] = None) -> Callable:
        code = LAYERS.index(layer)
        ends_period = layer == "models.step"
        stack, layers, parents, amounts = self._stack, self.layer, self.parent, self.amount
        episodes, periods, starts, ends = self.episode, self.period, self.start, self.end
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if stack and layers[stack[-1]] == code:
                return fn(*args, **kwargs)
            idx = len(starts)
            layers.append(code)
            parents.append(stack[-1] if stack else -1)
            amounts.append(amount(args) if amount is not None else 0)
            episodes.append(self.current_episode)
            periods.append(self.current_period)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if ends_period and not stack:
                    self.current_period += 1

        return timed

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: np.frombuffer(getattr(self, name), dtype=getattr(self, name).typecode)
                for name in ("layer", "parent", "amount", "episode", "period", "start", "end")}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(LAYERS), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, summed amount, total and self seconds.

        Self time is a span's duration minus the durations of its children;
        spans nest strictly, so children never overlap.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        own = duration - child
        out = {}
        for code, name in enumerate(LAYERS):
            mask = a["layer"] == code
            out[name] = {"calls": int(mask.sum()), "amount": int(a["amount"][mask].sum()),
                         "total_s": float(duration[mask].sum()), "self_s": float(own[mask].sum())}
        return out

    def amount_under(self, layer: str, parent_layer: str) -> int:
        """Summed amount of ``layer`` spans whose parent is a ``parent_layer`` span."""
        a = self.arrays()
        has_parent = a["parent"] >= 0
        parent_layer_of = np.full(len(a["layer"]), -1)
        parent_layer_of[has_parent] = a["layer"][a["parent"][has_parent]]
        mask = (a["layer"] == LAYERS.index(layer)) & (parent_layer_of == LAYERS.index(parent_layer))
        return int(a["amount"][mask].sum())

    def periods_per_episode(self) -> dict[int, int]:
        """Periods each episode closed, as seen from the spans."""
        a = self.arrays()
        ends = (a["layer"] == LAYERS.index("models.step")) & (a["parent"] < 0)
        episodes, counts = np.unique(a["episode"][ends], return_counts=True)
        return dict(zip(episodes.tolist(), counts.tolist()))


def _rows(args) -> int:
    return args[0].shape[0]


def _method_rows(args) -> int:
    return args[1].shape[0]


def timed_benchmark(tracer: Tracer, bench: Benchmark) -> Benchmark:
    """The same plant, constraints and cost, with every public call timed."""
    w = tracer.wrap

    class TimedConstraints(ConstraintSpec):
        input_ok = w("core.feasible", ConstraintSpec.input_ok)
        state_ok = w("core.feasible", ConstraintSpec.state_ok)
        state_violation_kind = w("core.feasible", ConstraintSpec.state_violation_kind)
        terminal_ok = w("core.feasible", ConstraintSpec.terminal_ok)
        states_ok_rows = w("core.feasible_rows", ConstraintSpec.states_ok_rows, _method_rows)
        terminal_ok_rows = w("core.feasible_rows", ConstraintSpec.terminal_ok_rows, _method_rows)

    class TimedCost(CostSpec):
        stage_cost = w("core.cost", CostSpec.stage_cost)
        terminal_cost = w("core.cost", CostSpec.terminal_cost)

    model = bench.model
    timed_model = dataclasses.replace(
        model, step=w("models.step", model.step),
        batch_step=None if model.batch_step is None else w("models.batch_step", model.batch_step, _rows),
        terminal_law=None if model.terminal_law is None else w("models.terminal_law", model.terminal_law))
    c, k = bench.constraints, bench.cost
    return dataclasses.replace(
        bench, model=timed_model,
        constraints=TimedConstraints(c.state_box, c.input_box, c.obstacles, c.terminal),
        cost=TimedCost(k.stage_state_weights, k.stage_input_weights, k.terminal_weight, k.reference))


@contextlib.contextmanager
def traced_solver(tracer: Tracer):
    """Replace the solver module's globals with timed stand-ins, and restore them."""
    saved = {name: getattr(solver, name) for name in SOLVER_GLOBALS}
    try:
        for name, layer in SOLVER_GLOBALS.items():
            amount = (lambda args: args[2]) if name == "draw_samples" else None
            setattr(solver, name, tracer.wrap(layer, saved[name], amount))
        yield
    finally:
        for name, fn in saved.items():
            setattr(solver, name, fn)
