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
    make_toy_dataset,
    solve,
)
from mvsubspace.methods import fit as fit_method
from mvsubspace.methods import method_terms

from helpers import (
    PENCIL_RTOL,
    blockdiag_dense,
    dense_materialize,
    pencil_gap,
    random_dataset,
)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_fitted_models_satisfy_their_pencil(name):
    ds = random_dataset(seed=13, dims=(5, 4, 3), classes=3, n=24)
    method = MethodId(name, k=2)
    prob = build(method, ds)
    # The statistics build matches summing a scaled d x d copy per term and
    # adding gamma * I, up to the order of the sums.
    views = list(ds.views)
    objective, constraint = dense_materialize(
        method_terms(method, ds.n_samples, ds.labels, len(views)), views
    )
    old = GevdProblem(objective, constraint + method.gamma * np.eye(12), method.k)
    assert pencil_gap(prob.objective, old.objective) <= PENCIL_RTOL
    assert pencil_gap(prob.constraint, old.constraint) <= PENCIL_RTOL
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


FACTORED_METHODS = ("MvOPLS", "MvLDA", "MvDA", "MvDA_VC", "MvMDA")


@pytest.mark.parametrize("dim, n", [(50, 1500), (250, 250)])
def test_rank_c_objectives_take_the_factored_route(dim, n):
    """At the benchmark's shapes (3 views, 10 classes, k = 9) the five methods
    whose objective is one eye = 0 dense kernel are solved in its rank; the
    other four, whose objectives carry an identity part, are not."""
    ds = make_toy_dataset(classes=10, views=3, samples=n, dims=(dim,) * 3, seed=1)
    for name in METHOD_NAMES:
        prob = build(MethodId(name, k=9), ds)
        assert (prob.objective_factor is not None) == (name in FACTORED_METHODS)
        want = "factored" if name in FACTORED_METHODS else "full"
        assert solve(prob).route == want, name


def test_factor_check_allows_the_rounding_of_raw_view_means():
    """Pencils are built from raw views; with a large offset the factor must
    still be accepted and solved in its rank."""
    ds = random_dataset(seed=3, dims=(6, 5, 4), classes=4, n=40)
    shifted = MultiViewDataset(tuple(X + 1e5 for X in ds.views), ds.labels)
    for name in FACTORED_METHODS:
        prob = build(MethodId(name, k=3), shifted)
        assert prob.objective_factor is not None
        assert solve(prob).route == "factored"


SHIFT_INVARIANT = ("MCCA", "MvOPLS", "MvLDA", "MvMDA", "MLDA", "GMA")


@pytest.mark.parametrize("offset, bound", [(1e4, 1e-10), (1e6, 1e-8)])
def test_view_offsets_keep_the_spectrum(offset, bound):
    """A common offset on every view leaves these six pencils unchanged in
    exact arithmetic.  The statistics build removes the mean before any
    product, so the offset costs no more than a few digits of its size."""
    ds = make_toy_dataset(classes=10, views=3, samples=300, dims=(20,) * 3, seed=0)
    shifted = MultiViewDataset(tuple(X + offset for X in ds.views), ds.labels)
    for name in SHIFT_INVARIANT:
        method = MethodId(name, k=9)
        want = solve(build(method, ds)).eigenvalues
        got = solve(build(method, shifted)).eigenvalues
        assert np.max(np.abs(got - want) / np.abs(want)) <= bound, name
