"""One rule for a number, over every public constructor: each numeric field
refuses a string, a bool, NaN and (where it does not default to None) None
with a SampledNmpcError subclass whose message names the field."""

import math

import numpy as np
import pytest

from sampled_nmpc import (BoxSet, BuckBoostParams, CartSpringParams, CostModel, EllipsoidSet,
                          ExperimentConfig, ObstacleSet, SamplerConfig, SolverConfig, WmrParams)
from sampled_nmpc.errors import SampledNmpcError

# Each class with the arguments that make it valid, and its numeric fields.
CONSTRUCTORS = {
    CartSpringParams: ({}, ["ts", "rho0", "mass", "damping"]),
    BuckBoostParams: ({}, ["r_l", "c_f", "l_f", "ts", "v_s", "r_h"]),
    WmrParams: ({}, ["ts"]),
    CostModel: ({}, ["c1", "c2"]),
    SamplerConfig: ({}, ["seed"]),
    SolverConfig: ({"horizon": 3},
                   ["horizon", "samples_per_step", "lanes", "time_budget", "oracle_budget"]),
    BoxSet: ({"lower": [0.0], "upper": [1.0]}, ["lower", "upper"]),
    EllipsoidSet: ({"center": [0.0, 0.0], "shape": np.eye(2), "level": 1.0},
                   ["center", "shape", "level"]),
    ObstacleSet: ({"center": [0.0, 3.0], "radius": 1.0}, ["center", "radius", "axes"]),
    ExperimentConfig: ({"config_id": "c", "plant": "cart-spring", "horizon": 3, "steps": 2},
                       ["horizon", "steps", "samples_per_step", "lanes", "initial_state",
                        "time_budget_ms", "oracle_budget", "initial_plan", "schema_version"]),
}
DEFAULTS_NONE = {(SolverConfig, "time_budget"), (ExperimentConfig, "initial_state"),
                 (ExperimentConfig, "time_budget_ms"), (ExperimentConfig, "initial_plan")}
CASES = [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
         for cls, (_, names) in CONSTRUCTORS.items() for name in names
         for value in ("a", True, math.nan, None)
         if not (value is None and (cls, name) in DEFAULTS_NONE)]


def test_each_constructor_is_valid_with_its_base_arguments():
    for cls, (base, _) in CONSTRUCTORS.items():
        cls(**base)


@pytest.mark.parametrize("cls, name, value", CASES)
def test_a_value_that_is_no_number_is_a_typed_error_naming_its_field(cls, name, value):
    base, _ = CONSTRUCTORS[cls]
    with pytest.raises(SampledNmpcError) as raised:
        cls(**{**base, name: value})
    assert name in str(raised.value)
