"""Memory stays linear in n: no n x n array in a fit, a deep gradient or
the evaluation."""

import tracemalloc

import numpy as np
import pytest

import mvsubspace as mv
from mvsubspace.deep import MlpConfig, TrainerConfig, init_networks, loss_gradient
from mvsubspace.evaluation import cross_modal_retrieve, knn1_classify

from helpers import random_dataset

N = 5000
# One n x n float64 at n = 5000 is 191 MB; views and indicator are ~1.4 MB.
PEAK_LIMIT_MB = 32


@pytest.fixture(scope="module")
def large():
    return random_dataset(seed=3, dims=(10, 10, 10), classes=5, n=N)


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", mv.METHOD_NAMES)
def test_fit_peak_memory_is_linear_in_n(large, name):
    peak = _peak_mb(mv.fit_method, mv.MethodId(name, k=3), large)
    assert peak < PEAK_LIMIT_MB, f"{name} fit peaked at {peak:.1f} MB"


def _deep_gradient_peak_mb(ds, name):
    nets = init_networks(ds, MlpConfig(hidden=(8,), out_dim=4, seed=0))
    return _peak_mb(
        loss_gradient, nets, ds, TrainerConfig(), mv.MethodId(name, k=3)
    )


def test_deep_gradient_peak_memory_is_linear_in_n(large):
    peak = _deep_gradient_peak_mb(large, "MvOPLS")
    assert peak < PEAK_LIMIT_MB, f"deep loss_gradient peaked at {peak:.1f} MB"


def test_deep_representer_gradient_peak_memory_is_linear_in_n(large):
    peak = _deep_gradient_peak_mb(large, "MvDA_VC")
    assert peak < PEAK_LIMIT_MB, f"deep MvDA_VC gradient peaked at {peak:.1f} MB"


def test_evaluation_peak_memory_is_linear_in_queries(large):
    # one 2000 x 5000 x 3 difference tensor would be 229 MB
    rng = np.random.default_rng(4)
    Z_train = rng.standard_normal((3, N))
    Z_query = rng.standard_normal((3, 2000))
    peak = _peak_mb(knn1_classify, Z_train, large.labels, Z_query)
    assert peak < PEAK_LIMIT_MB, f"knn1_classify peaked at {peak:.1f} MB"
    labels = large.labels[:2000]
    peak = _peak_mb(
        cross_modal_retrieve, Z_query, labels, Z_train[:, :2000], labels
    )
    assert peak < PEAK_LIMIT_MB, f"cross_modal_retrieve peaked at {peak:.1f} MB"
