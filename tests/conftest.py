import numpy as np
import pytest

from sampled_nmpc import make_benchmark


@pytest.fixture
def cart10():
    return make_benchmark("cart-spring", 10, None)


@pytest.fixture
def cart_x0():
    return np.array([-2.5, 3.0])


@pytest.fixture
def buck10():
    return make_benchmark("buck-boost", 10, None)


@pytest.fixture
def wmr5():
    return make_benchmark("wmr", 5, None)


@pytest.fixture
def free_wmr10():
    """The robot without its obstacle: no candidate can violate a constraint."""
    return make_benchmark("wmr", 10, {"obstacle": None})
