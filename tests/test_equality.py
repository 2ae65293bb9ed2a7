"""The package's one equality rule.  A dataclass that holds an array is a
reference type: ``==`` is identity and its hash is ``object``'s.  Configs,
params, reports and ``ConstraintSpec`` compare by value, their fields of
array-holding types by identity.  A ``SamplerState`` is its stream position:
its config and counter."""

import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sampled_nmpc import (BoxSet, Plan, SamplerConfig, SamplerState, SolverConfig, WmrParams,
                          closed_loop, draw_samples, find_oracle, improve_plan, make_benchmark)
from sampled_nmpc.sampling import SCHEMES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sampled_nmpc"


def _cart():
    return make_benchmark("cart-spring", 5)


def _solve():
    bench, cfg = _cart(), SolverConfig(horizon=5, samples_per_step=3)
    warm = find_oracle(bench.default_x0, bench.model, bench.constraints, bench.cost, cfg)
    return improve_plan(bench.default_x0, warm, bench.model, bench.constraints, bench.cost, cfg)


def _run():
    bench = _cart()
    return closed_loop(bench.model, bench.constraints, bench.cost,
                       SolverConfig(horizon=5, samples_per_step=3), bench.default_x0, 2)


# Each array-holding type, built through the path that hands it out.
ARRAY_HOLDERS = {
    "Plan": lambda: Plan(np.zeros((3, 1))),
    "PlantModel": lambda: _cart().model,
    "BoxSet": lambda: _cart().constraints.state_box,
    "EllipsoidSet": lambda: _cart().constraints.terminal,
    "ObstacleSet": lambda: make_benchmark("wmr", 5).constraints.obstacles[0],
    "CostSpec": lambda: _cart().cost,
    "Benchmark": _cart,
    "SolveResult": _solve,
    "_SteppedPlan": lambda: _solve().plan,
    "StepRecord": lambda: _run().records[0],
    "RunLog": _run,
}


def package_dataclasses() -> list[type]:
    """Every dataclass defined at the top level of the package's modules."""
    modules = [importlib.import_module(f"sampled_nmpc.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__]


def holds_array(cls: type) -> bool:
    return any("ndarray" in str(f.type) for f in dataclasses.fields(cls))


@pytest.mark.parametrize("cls", package_dataclasses(), ids=lambda cls: cls.__name__)
def test_a_dataclass_compares_by_identity_exactly_when_it_holds_an_array(cls):
    by_identity = cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    assert by_identity == holds_array(cls)


def test_the_walk_finds_each_array_holder():
    assert {cls.__name__ for cls in package_dataclasses() if holds_array(cls)} == set(ARRAY_HOLDERS)


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_an_array_holder_is_equal_only_to_itself(name):
    x = ARRAY_HOLDERS[name]()
    assert type(x).__name__ == name
    copy = dataclasses.replace(x)
    assert x == x and x != copy and not x == copy
    assert {x: 1}[x] == 1 and copy not in {x: 1}


def test_a_solver_config_with_an_initial_plan_compares_and_hashes_by_value():
    plan = Plan(np.zeros((3, 1)))
    cfg = SolverConfig(horizon=3, initial_plan=plan)
    rebuilt = SolverConfig(horizon=3, initial_plan=plan)
    assert cfg == rebuilt and hash(cfg) == hash(rebuilt) and {cfg: 1}[rebuilt] == 1
    assert cfg != SolverConfig(horizon=3, initial_plan=Plan(plan.inputs))


def test_params_and_constraints_compare_their_sets_by_identity():
    assert WmrParams() != WmrParams()  # each default obstacle is its own object
    params = WmrParams()
    assert params == dataclasses.replace(params) and {params: 1}[dataclasses.replace(params)] == 1
    constraints = make_benchmark("wmr", 5).constraints
    assert constraints == dataclasses.replace(constraints)
    assert hash(constraints) == hash(dataclasses.replace(constraints))
    assert constraints != make_benchmark("wmr", 5).constraints


@given(st.sampled_from(SCHEMES), st.integers(0, 2 ** 64 - 1), st.integers(0, 50),
       st.integers(1, 3), st.integers(0, 9), st.integers(0, 9), st.integers(1, 9))
@example(scheme="random", seed=3, counter=0, dim=2, first=3, again=4, count=5)
@settings(max_examples=60, deadline=None)
def test_a_sampler_state_copy_is_its_stream_position(scheme, seed, counter, dim, first, again,
                                                     count):
    # A copy taken after a draw continues from its own counter, whatever the
    # original draws next, as a state built at that counter does.
    box = BoxSet(np.zeros(dim), np.ones(dim))
    config = SamplerConfig(scheme=scheme, seed=seed)
    state = SamplerState(config, counter=counter)
    draw_samples(state, box, first)
    copy = dataclasses.replace(state)
    fresh = SamplerState(config, counter=state.counter)
    draw_samples(state, box, again)
    assert copy == fresh and (state == fresh) == (again == 0)
    assert draw_samples(copy, box, count).tobytes() == draw_samples(fresh, box, count).tobytes()
    assert copy == fresh


def test_a_sampler_state_takes_its_config_and_counter_only():
    config = SamplerConfig(scheme="random")
    with pytest.raises(TypeError):
        SamplerState(config, 0, np.random.default_rng())
    with pytest.raises(TypeError):
        SamplerState(config, _dim=2)
    assert SamplerState(config, 1) != SamplerState(config, 2)
    assert SamplerState(config, 1) != SamplerState(SamplerConfig(scheme="halton"), 1)
