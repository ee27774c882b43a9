import numpy as np
import pytest

from selreg import (Dataset, FitState, SyntheticSpec, Uniform,
                    generate_synthetic, kernel_spec, mean_quadratic,
                    sd_sigmoid)


@pytest.fixture
def gauss1d():
    return kernel_spec("gaussian", 1)


@pytest.fixture
def sigmoid_spec():
    """The 1-D benchmark model: X ~ U(-2, 2), f = x^2/4, sd = sigmoid."""
    return SyntheticSpec(covariate_dists=(Uniform(-2.0, 2.0),),
                         mean_fn=mean_quadratic, sd_fn=sd_sigmoid,
                         n=200, seed=20240612)


@pytest.fixture
def small_fit(gauss1d, sigmoid_spec):
    data = generate_synthetic(sigmoid_spec)
    return FitState(train=data, kernel=gauss1d, h=0.3)


def make_fit(x, y, kernel=None, h=1.0):
    kernel = kernel or kernel_spec("gaussian", 1)
    return FitState(train=Dataset(x=np.asarray(x, dtype=float),
                                  y=np.asarray(y, dtype=float)),
                    kernel=kernel, h=h)
