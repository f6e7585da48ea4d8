"""Memory stays linear in n: no n x n array in a fit or a deep gradient."""

import tracemalloc

import numpy as np
import pytest

import mvsubspace as mv
from mvsubspace.deep import MlpConfig, TrainerConfig, init_networks, loss_gradient

from helpers import random_dataset

N = 5000
# One n x n float64 at n = 5000 is 191 MB; views and indicator are ~1.4 MB.
PEAK_LIMIT_MB = 32

# MvDA_VC's representer coupling inverts an n x n Gram per view.
LINEAR_IN_N = tuple(m for m in mv.METHOD_NAMES if m != "MvDA_VC")


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


@pytest.mark.parametrize("name", LINEAR_IN_N)
def test_fit_peak_memory_is_linear_in_n(large, name):
    peak = _peak_mb(mv.fit_method, mv.MethodId(name, k=3), large)
    assert peak < PEAK_LIMIT_MB, f"{name} fit peaked at {peak:.1f} MB"


def test_deep_gradient_peak_memory_is_linear_in_n(large):
    mlp = MlpConfig(hidden=(8,), out_dim=4, seed=0)
    nets = init_networks(large, mlp)
    peak = _peak_mb(
        loss_gradient, nets, large, TrainerConfig(), mv.MethodId("MvOPLS", k=3)
    )
    assert peak < PEAK_LIMIT_MB, f"deep loss_gradient peaked at {peak:.1f} MB"
