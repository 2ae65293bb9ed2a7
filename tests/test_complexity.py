import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_nmpc import (
    CostModel,
    calibrate_cost_model,
    predicted_bounds,
    predicted_serial,
)
from sampled_nmpc.errors import ContractViolationError


class TestPredictedSerial:
    def test_uniform_ten_by_ten(self):
        assert predicted_serial([10] * 10, 10, CostModel()) == 650.0

    def test_no_samples_no_work(self):
        assert predicted_serial([0] * 7, 7, CostModel()) == 0.0

    def test_single_position_weighting(self):
        assert predicted_serial([1, 0, 0], 3, CostModel(c1=2.0, c2=5.0)) == 2 * 3 * 1 + 5 * 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            predicted_serial([1, 2], 3, CostModel())


class TestPredictedBounds:
    def test_reference_values(self):
        bounds = predicted_bounds(10, 10, CostModel(), p=3)
        assert bounds == (650.0, 65.0, 260.0)

    def test_processor_count_saturates(self):
        model = CostModel()
        full = predicted_bounds(10, 10, model, p=10).full_parallel
        assert predicted_bounds(10, 10, model, p=10).p_parallel == full
        assert predicted_bounds(10, 10, model, p=17).p_parallel == full

    def test_single_sample_matches_full_parallel(self):
        for p in (1, 2, 9):
            bounds = predicted_bounds(1, 10, CostModel(), p=p)
            assert bounds.p_parallel == bounds.full_parallel

    def test_zero_samples(self):
        bounds = predicted_bounds(0, 5, CostModel(), p=2)
        assert bounds.serial_bound == 0.0 and bounds.p_parallel == 0.0

    @given(st.integers(0, 40), st.integers(1, 30),
           st.floats(0.01, 10), st.floats(0.01, 10))
    @settings(max_examples=100, deadline=None)
    def test_constant_samples_make_exact_equal_bound(self, n_bar, big_n, c1, c2):
        model = CostModel(c1=c1, c2=c2)
        exact = predicted_serial([n_bar] * big_n, big_n, model)
        assert exact == pytest.approx(predicted_bounds(n_bar, big_n, model, 1).serial_bound,
                                      rel=1e-12)

    @given(st.integers(0, 40), st.integers(1, 30), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_processor_bound_monotone_nonincreasing(self, n_bar, big_n, p):
        model = CostModel()
        bounds = predicted_bounds(n_bar, big_n, model, p)
        more = predicted_bounds(n_bar, big_n, model, p + 1).p_parallel
        assert more <= bounds.p_parallel
        if p >= max(n_bar, 1):  # saturated: one batch of candidates per position
            expected = 0.0 if n_bar == 0 else bounds.full_parallel
            assert bounds.p_parallel == expected


class TestCostModel:
    def test_requires_positive_unit_costs(self):
        with pytest.raises(ContractViolationError):
            CostModel(c1=0.0)

    def test_calibration_times_the_callables(self):
        model = calibrate_cost_model(lambda: sum(range(50)), lambda: math.sqrt(2.0),
                                     repeats=51)
        assert model.units == "seconds"
        assert model.c1 > 0 and model.c2 > 0
