"""Each regularizer's matrix form must match its pairwise-sum definition."""

import numpy as np
import pytest

from mvsubspace import build_indicator
from mvsubspace.regularizers import (
    cca_coupling,
    hsic_alignment,
    lda_per_view,
    mean_consistency,
    representer_consistency,
)
from mvsubspace.scatter import blockdiag_dense

from helpers import (
    balanced_labels,
    between_kernel,
    between_class_scatter,
    centering_matrix,
    orthonormalish_views,
)


def _random_pw(rng, dims, k, c):
    P = rng.standard_normal((sum(dims), k))
    W = rng.standard_normal((k, c))
    offs = np.cumsum((0,) + tuple(dims))
    Pv = [P[offs[s] : offs[s + 1]] for s in range(len(dims))]
    return P, W, Pv


def quadform(M, P, W):
    return float(np.trace(W.T @ P.T @ M @ P @ W))


def test_mean_consistency_identity():
    rng = np.random.default_rng(7)
    dims = (5, 4, 3)
    n, v = 18, 3
    views = [rng.standard_normal((d, n)) for d in dims]
    P, W, Pv = _random_pw(rng, dims, 2, 3)
    term = mean_consistency(views)
    m = [(W.T @ Pv[s].T @ views[s]).mean(axis=1) for s in range(v)]
    direct = n / (2 * v) * sum(
        np.sum((m[s] - m[t]) ** 2) for s in range(v) for t in range(v)
    )
    assert quadform(term.constraint_add, P, W) == pytest.approx(direct, rel=1e-10)


def test_representer_consistency_identity():
    rng = np.random.default_rng(3)
    dims = (8, 7, 9)
    n, v = 6, 3
    views = orthonormalish_views(rng, dims, n)
    P, W, Pv = _random_pw(rng, dims, 2, 3)
    term = representer_consistency(views)
    betas = []
    for s in range(v):
        G = views[s].T @ views[s]
        eps = 1e-10 * np.trace(G) / n
        betas.append(np.linalg.solve(G + eps * np.eye(n), views[s].T @ (Pv[s] @ W)))
    direct = 0.5 * sum(
        np.sum((betas[s] - betas[t]) ** 2) for s in range(v) for t in range(v)
    )
    assert quadform(term.constraint_add, P, W) == pytest.approx(direct, rel=1e-8)


def test_cca_coupling_identity():
    rng = np.random.default_rng(11)
    dims = (4, 6)
    n, v = 14, 2
    tviews = [rng.standard_normal((d, n)) for d in dims]
    tviews = [X - X.mean(axis=1, keepdims=True) for X in tviews]
    P, W, Pv = _random_pw(rng, dims, 3, 2)
    term = cca_coupling(tviews)
    Z = [W.T @ Pv[s].T @ tviews[s] for s in range(v)]
    direct = 0.5 * sum(
        np.sum((Z[s] - Z[t]) ** 2) for s in range(v) for t in range(v)
    )
    assert quadform(term.objective_sub, P, W) == pytest.approx(direct, rel=1e-10)
    assert np.allclose(term.constraint_add, 0.0)


def test_hsic_alignment_is_per_view_between_scatter():
    rng = np.random.default_rng(5)
    n = 12
    labels = balanced_labels(3, n, rng)
    ind = build_indicator(labels)
    views = [rng.standard_normal((d, n)) for d in (4, 3)]
    term = hsic_alignment(views, ind)
    want = -blockdiag_dense([between_class_scatter(X, ind) for X in views])
    np.testing.assert_allclose(term.constraint_add, want, atol=1e-12)
    assert np.allclose(term.objective_sub, 0.0)


def test_lda_per_view_kernel():
    rng = np.random.default_rng(6)
    n, lam = 10, 0.5
    labels = balanced_labels(2, n, rng)
    ind = build_indicator(labels)
    views = [rng.standard_normal((3, n))]
    R = centering_matrix(n) - lam * between_kernel(ind)
    want = blockdiag_dense([views[0] @ R @ views[0].T])
    np.testing.assert_allclose(
        lda_per_view(views, ind, lam).objective_sub, want, atol=1e-12
    )
