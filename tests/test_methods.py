"""The method catalog: every entry must solve its own pencil exactly."""

import numpy as np
import pytest

from mvsubspace import (
    METHOD_NAMES,
    GevdProblem,
    MethodId,
    MultiViewDataset,
    NumericalError,
    build,
    build_via_framework,
    embed,
    solve,
)
from mvsubspace.methods import fit as fit_method
from mvsubspace.methods import method_terms

from helpers import blockdiag_dense, dense_materialize, random_dataset


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_fitted_models_satisfy_their_pencil(name):
    ds = random_dataset(seed=13, dims=(5, 4, 3), classes=3, n=24)
    method = MethodId(name, k=2)
    prob = build(method, ds)
    # In-place accumulation leaves the pencil bit-identical to summing a
    # scaled d x d copy per term and adding gamma * I.
    views = list(ds.views)
    objective, constraint = dense_materialize(
        method_terms(method, ds.n_samples, ds.labels, len(views)), views
    )
    old = GevdProblem(objective, constraint + method.gamma * np.eye(12), method.k)
    assert np.array_equal(prob.objective, old.objective)
    assert np.array_equal(prob.constraint, old.constraint)
    sol = solve(prob)
    np.testing.assert_allclose(
        sol.P.T @ prob.constraint @ sol.P, np.eye(2), atol=1e-10
    )
    np.testing.assert_allclose(
        prob.objective @ sol.P,
        prob.constraint @ sol.P @ np.diag(sol.eigenvalues),
        atol=1e-9 * max(1.0, np.abs(prob.objective).max()),
    )


FRAMEWORK_EXACT = tuple(m for m in METHOD_NAMES if m != "MvMDA")


@pytest.mark.parametrize("name", FRAMEWORK_EXACT)
def test_framework_route_matches_direct_build(name):
    ds = random_dataset(seed=21, dims=(4, 6, 3), classes=3, n=21)
    method = MethodId(name, k=2, gamma=1e-3, lam=0.3)
    pa = build(method, ds)
    pb = build_via_framework(method, ds)
    scale = max(1.0, np.abs(pa.objective).max())
    np.testing.assert_allclose(pa.objective, pb.objective, atol=1e-10 * scale)
    scale = max(1.0, np.abs(pa.constraint).max())
    np.testing.assert_allclose(pa.constraint, pb.constraint, atol=1e-10 * scale)


def test_framework_route_divergence_for_raw_view_alignment():
    """The one catalog entry the generic assembly cannot reproduce exactly.

    Both routes agree on the objective; the generic constraint keeps one
    rank-one mean block per view that the direct build removes.
    """
    ds = random_dataset(seed=2, dims=(4, 3), classes=3, n=18)
    method = MethodId("MvMDA", k=2)
    pa = build(method, ds)
    pb = build_via_framework(method, ds)
    np.testing.assert_allclose(pa.objective, pb.objective, atol=1e-10)
    n = ds.n_samples
    mean_blocks = blockdiag_dense(
        [np.outer(X.sum(axis=1), X.sum(axis=1)) / n for X in ds.views]
    )
    np.testing.assert_allclose(
        pb.constraint - pa.constraint, mean_blocks, atol=1e-10
    )


def test_lambda_changes_only_lambda_methods():
    ds = random_dataset(seed=5, dims=(4, 3), n=18)
    for name in METHOD_NAMES:
        a = build(MethodId(name, k=1, lam=0.1), ds)
        b = build(MethodId(name, k=1, lam=0.9), ds)
        same = np.allclose(a.objective, b.objective) and np.allclose(
            a.constraint, b.constraint
        )
        assert same == (name not in ("MvDA_VC", "MLDA", "GMA", "MvDA_CCA"))


def test_mcca_needs_no_labels_others_do():
    ds = random_dataset(seed=6, dims=(4, 3), n=14)
    unlabeled = MultiViewDataset(ds.views)
    build(MethodId("MCCA", k=1), unlabeled)  # fine
    with pytest.raises(ValueError, match="needs labels"):
        build(MethodId("MvOPLS", k=1), unlabeled)


def test_overflowing_pencil_is_a_numerical_error():
    """Finite views near 1e160 overflow the pencil before any solve starts."""
    ds = random_dataset(seed=9, dims=(3, 2), n=12)
    huge = MultiViewDataset(tuple(1e160 * X for X in ds.views), ds.labels)
    with pytest.raises(NumericalError, match="objective matrix has non-finite"):
        fit_method(MethodId("MvOPLS", k=1), huge)


def test_mcca_two_views_recovers_cca():
    """Top correlation of the shared embedding must match a direct CCA oracle."""
    rng = np.random.default_rng(8)
    n, d1, d2 = 60, 5, 4
    shared = rng.standard_normal(n)
    X1 = np.vstack([shared + 0.1 * rng.standard_normal(n) for _ in range(d1)])
    X2 = np.vstack([shared + 0.1 * rng.standard_normal(n) for _ in range(d2)])
    ds = MultiViewDataset((X1, X2))
    model = fit_method(MethodId("MCCA", k=1, gamma=1e-10), ds)
    (za, zb), _ = embed(model, ds)
    got = abs(np.corrcoef(za[0], zb[0])[0, 1])

    # brute-force CCA: whiten both centered views, take the top singular value
    Xa = X1 - X1.mean(axis=1, keepdims=True)
    Xb = X2 - X2.mean(axis=1, keepdims=True)
    def invsqrt(M):
        w, U = np.linalg.eigh(M)
        return U @ np.diag(w ** -0.5) @ U.T
    T = invsqrt(Xa @ Xa.T) @ (Xa @ Xb.T) @ invsqrt(Xb @ Xb.T)
    want = np.linalg.svd(T, compute_uv=False)[0]
    assert got == pytest.approx(want, abs=1e-6)


def test_fit_returns_working_model():
    ds = random_dataset(seed=9, dims=(5, 4, 3), n=24, shift=1.2)
    model = fit_method(MethodId("MvOPLS", k=2), ds)
    from mvsubspace import predict

    assert (predict(model, ds) == ds.labels).mean() > 0.8


def test_method_id_validation():
    with pytest.raises(ValueError, match="unknown method"):
        MethodId("OPLS", k=1)
    with pytest.raises(ValueError, match="k must be"):
        MethodId("MCCA", k=0)
    with pytest.raises(ValueError, match="nonnegative"):
        MethodId("MCCA", k=1, gamma=-0.1)
