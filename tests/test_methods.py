"""The method catalog: every entry must solve its own pencil exactly."""

import warnings

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from mvsubspace import (
    METHOD_NAMES,
    GevdProblem,
    MethodId,
    ModelSpec,
    MultiViewDataset,
    NumericalError,
    build,
    embed,
    make_toy_dataset,
    solve,
)
from mvsubspace import gevd
from mvsubspace.framework import label_readers, spec_terms
from mvsubspace.methods import fit as fit_method
from mvsubspace.scatter import (
    ClassStatistics,
    LowRankBlocks,
    materialize,
    whitens_samples,
)

from helpers import (
    PENCIL_RTOL,
    catalog_pencil,
    center_columns,
    dense_materialize,
    longdouble_mean_oracle,
    longdouble_whitened,
    parent_constraint,
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
        spec_terms(method, ds.labels, ds.n_samples, len(views)), views
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


# The spec route sums the MvDA family's blockdiag(H + mean) where the oracle
# writes the identity, so those three pencils agree in rounding only; the
# other six spell the same kernel sums and agree bit for bit.
ROUNDING_ONLY = ("MvDA", "MvDA_VC", "MvDA_CCA")


def _assert_matches_oracle(method, ds):
    got, want = build(method, ds), catalog_pencil(method, ds)
    for g, w in ((got.objective, want.objective), (got.constraint, want.constraint)):
        if method.method in ROUNDING_ONLY:
            assert pencil_gap(g, w) <= PENCIL_RTOL, method.method
        else:
            np.testing.assert_array_equal(g, w, err_msg=method.method)
    assert (got.objective_factor is None) == (want.objective_factor is None)
    if got.objective_factor is not None:
        for g, w in zip(got.objective_factor, want.objective_factor):
            np.testing.assert_array_equal(g, w, err_msg=method.method)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_framework_route_matches_direct_build(name):
    ds = random_dataset(seed=21, dims=(4, 6, 3), classes=3, n=21)
    _assert_matches_oracle(MethodId(name, k=2, gamma=1e-3, lam=0.3), ds)


@pytest.mark.parametrize("dim, n", [(50, 1500), (250, 250)])
def test_catalog_matches_the_oracle_at_benchmark_shapes(dim, n):
    ds = make_toy_dataset(classes=10, views=3, samples=n, dims=(dim,) * 3, seed=1)
    for name in METHOD_NAMES:
        _assert_matches_oracle(MethodId(name, k=9), ds)


def test_mvlda_with_one_view_has_no_joint_terms():
    ds = random_dataset(seed=4, dims=(5,), classes=3, n=15)
    method = MethodId("MvLDA", k=2)
    assert len(spec_terms(method, ds.labels, ds.n_samples, 1)) == 2
    _assert_matches_oracle(method, ds)


def test_supervised_methods_are_those_reading_labels():
    supervised = [m for m in METHOD_NAMES if label_readers(MethodId(m, k=1))]
    assert supervised == [m for m in METHOD_NAMES if m != "MCCA"]


def test_mvmda_embeddings_ignore_a_view_offset():
    """MvMDA's spec centres its views, so a common offset on every view moves
    neither its projections (beyond rounding) nor its embeddings."""
    ds = make_toy_dataset(classes=4, views=3, samples=80, dims=(6,) * 3, seed=2)
    shifted = MultiViewDataset(tuple(X + 1e3 for X in ds.views), ds.labels)
    method = MethodId("MvMDA", k=3)
    _, want = embed(fit_method(method, ds), ds)
    _, got = embed(fit_method(method, shifted), shifted)
    np.testing.assert_allclose(got, want, atol=1e-6 * np.abs(want).max())


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
    with pytest.raises(ValueError, match="lam must be finite"):
        MethodId("MvDA_VC", k=1, lam=-0.1)


def _spelled_spec(name, k, gamma, lam):
    """Each catalog method's ModelSpec written out by hand."""
    target, regularizers = {
        "MCCA": ("identity_n", ()),
        "MvOPLS": ("sigma_invsqrt_onehot", ()),
        "MvLDA": ("sigma_invsqrt_onehot", (("joint", 1.0),)),
        "MvDA": ("sigma_invsqrt_onehot", (("mean", 1.0),)),
        "MvDA_VC": ("sigma_invsqrt_onehot", (("mean", 1.0), ("representer", lam))),
        "MvMDA": ("centered_normalized_label", (("hsic", 1.0),)),
        "MLDA": ("identity_n", (("lda", 1.0),)),
        "GMA": ("identity_n", (("lda", 1.0), ("hsic", 1.0))),
        "MvDA_CCA": ("sigma_invsqrt_onehot", (("mean", 1.0), ("cca", lam))),
    }[name]
    return ModelSpec(target, k, gamma, lam, regularizers, name)


@pytest.mark.parametrize("gamma, lam", [(1e-4, 1e-2), (1e-3, 0.3)])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_method_id_is_the_catalog_spec(name, gamma, lam):
    spec = MethodId(name, 3, gamma, lam)
    assert type(spec) is ModelSpec
    assert spec == _spelled_spec(name, 3, gamma, lam)


FACTORED_METHODS = ("MvOPLS", "MvLDA", "MvDA", "MvDA_VC", "MvMDA")


@pytest.mark.parametrize("dim, n", [(50, 1500), (250, 250)])
def test_rank_c_objectives_take_the_factored_route(dim, n):
    """At the benchmark's shapes (3 views, 10 classes, k = 9) the five methods
    whose objective is one eye = 0 dense kernel are solved in its rank.  Of
    the four whose objectives carry an identity part, MCCA's single term has
    the samples factor (X_w, I_n) where n = 250 is below 0.4 d = 300 (wide),
    not at n = 1500 against d = 150 (tall); MLDA, GMA and MvDA_CCA have
    blockdiag objective terms and no factor."""
    ds = make_toy_dataset(classes=10, views=3, samples=n, dims=(dim,) * 3, seed=1)
    factored = FACTORED_METHODS + (("MCCA",) if n < 0.4 * 3 * dim else ())
    for name in METHOD_NAMES:
        prob = build(MethodId(name, k=9), ds)
        assert (prob.objective_factor is not None) == (name in factored)
        want = "factored" if name in factored else "full"
        assert solve(prob).route == want, name


# (dims, n): n above d and d above n, where MCCA's n = 30 columns are below
# 0.4 d = 48 and it takes its samples factor.  With 5 classes and k = 3 the
# five rank-c methods are factored at both.
FIT_SHAPES = {"n>d": ((6, 5, 4), 40), "d>n": ((40, 40, 40), 30)}


@pytest.mark.parametrize("shape", FIT_SHAPES)
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_fit_agrees_with_solving_the_build(name, shape):
    """``fit`` solves a factor-defined pencil that forms no dense objective;
    the full route on the dense pencil ``build`` returns answers the same.
    Eigenvalues agree within 1e-13 relative, and spans by subspace angle
    where the gap exceeds 1e-8 of the top eigenvalue."""
    dims, n = FIT_SHAPES[shape]
    ds = random_dataset(seed=n, dims=dims, classes=5, n=n)
    method = MethodId(name, k=3)
    model, prob = fit_method(method, ds), build(method, ds)
    factored = FACTORED_METHODS + (("MCCA",) if shape == "d>n" else ())
    assert solve(prob).route == ("factored" if name in factored else "full")
    want = solve(GevdProblem(prob.objective, prob.constraint, prob.k))
    assert want.route == "full"
    np.testing.assert_allclose(model.eigenvalues, want.eigenvalues, rtol=1e-13, atol=0)
    if want.spectrum_gap > 1e-8 * abs(want.eigenvalues[0]):
        P = np.vstack(model.projections)
        assert subspace_angles(P, want.P).max() <= 1e-8


def _gram_reads(monkeypatch):
    """The ``gram`` each ClassStatistics is made with, in order."""
    asked = []
    construct = ClassStatistics.__init__

    def recording(self, views, Y, gram=None):
        asked.append(gram)
        construct(self, views, Y, gram)

    monkeypatch.setattr(ClassStatistics, "__init__", recording)
    return asked


def test_wide_mcca_takes_the_factored_route(monkeypatch):
    """At 3 x 250 dims and n = 250 MCCA's objective X_w X_w^T is defined by
    (X_w, I_n): its statistics form only the constraint's Gram blocks, a fit
    forms no dense objective, and the solve is factored."""
    asked = _gram_reads(monkeypatch)
    ds = make_toy_dataset(classes=10, views=3, samples=250, dims=(250,) * 3, seed=1)
    method = MethodId("MCCA", k=9)
    formed = []
    objective = GevdProblem.objective

    def reading(self):
        formed.append(self._objective is None)
        return objective.fget(self)

    monkeypatch.setattr(GevdProblem, "objective", property(reading))
    model = fit_method(method, ds)
    assert asked == ["blocks"] and formed == []
    prob = build(method, ds)
    S, M = prob.objective_factor
    assert S.shape == (750, 250)
    np.testing.assert_array_equal(M, np.eye(250))
    solution = solve(prob)
    assert solution.route == "factored" and formed == []
    np.testing.assert_array_equal(model.eigenvalues, solution.eigenvalues)
    # formed on its first read: X_w X_w^T, the objective the full Gram gives
    whole = ClassStatistics(ds.views, np.ones((1, 250)), "full")
    np.testing.assert_array_equal(prob.objective, whole.C_w)
    assert formed == [True]


def test_tall_mcca_builds_no_factor(monkeypatch):
    """n = 1500 columns against d = 150: the factor would not be taken, so
    none is made and the statistics form the whole Gram, as before."""
    asked = _gram_reads(monkeypatch)
    ds = make_toy_dataset(classes=10, views=3, samples=1500, dims=(50,) * 3, seed=1)
    prob = build(MethodId("MCCA", k=9), ds)
    assert asked == ["full"] and prob.objective_factor is None
    assert solve(prob).route == "full"


SAMPLE_WHITENED = ("MLDA", "GMA", "MvDA_CCA")


def _side_reads(monkeypatch):
    """The dense sides of a GevdProblem read, by name, in order."""
    reads = []
    for side in ("objective", "constraint"):
        prop = getattr(GevdProblem, side)

        def reading(self, side=side, prop=prop):
            reads.append(side)
            return prop.fget(self)

        monkeypatch.setattr(GevdProblem, side, property(reading))
    return reads


@pytest.mark.parametrize("name", SAMPLE_WHITENED)
def test_wide_fits_whiten_their_samples(monkeypatch, name):
    """At 3 x 250 dims and n = 250 <= d the objectives of MLDA, GMA and
    MvDA_CCA, dense and blockdiag terms over a block constraint (with
    MvDA_CCA's low-rank mean term), come as a SampleObjective:
    the statistics form only the constraint's Gram blocks, a fit reads
    neither dense side, and the full route solves.  Read, the objective is
    the one the whole Gram gives."""
    asked = _gram_reads(monkeypatch)
    ds = make_toy_dataset(classes=10, views=3, samples=250, dims=(250,) * 3, seed=1)
    method = MethodId(name, k=9)
    reads = _side_reads(monkeypatch)
    model = fit_method(method, ds)
    assert asked == ["blocks"] and reads == []
    prob = build(method, ds)
    assert prob.objective_samples is not None and prob.objective_factor is None
    assert [rows for rows, _ in prob.constraint_blocks] == prob.objective_samples.blocks
    solution = solve(prob)
    assert solution.route == "full" and reads == []
    np.testing.assert_array_equal(model.eigenvalues, solution.eigenvalues)
    terms = spec_terms(method, ds.labels, ds.n_samples, ds.n_views)
    whole = ClassStatistics(ds.views, terms[0].kernel.Y, "full")
    np.testing.assert_array_equal(prob.objective, materialize(terms, whole)[0]())


@pytest.mark.parametrize("name", SAMPLE_WHITENED)
def test_whitening_the_samples_takes_n_at_most_d(name):
    """``scatter.whitens_samples``: at d = 30 a sample objective with n = 30
    and a formed one with n = 31; the constraint comes as blocks at both."""
    for n, samples in ((30, True), (31, False)):
        ds = random_dataset(seed=n, dims=(10, 10, 10), classes=3, n=n)
        prob = build(MethodId(name, k=2), ds)
        assert (prob.objective_samples is not None) == samples
        assert whitens_samples(n, 30) == samples
        assert len(prob.constraint_blocks) == 3


def test_dense_constraints_are_one_array():
    """MvLDA and MvDA_VC have joint or representer constraint terms, which
    are not low rank: one d x d constraint, and no sample objective."""
    ds = random_dataset(seed=30, dims=(10, 10, 10), classes=3, n=12)
    for name in ("MvLDA", "MvDA_VC"):
        prob = build(MethodId(name, k=2), ds)
        assert prob.constraint_blocks is None and prob.objective_samples is None
        assert prob.constraint_low_rank is None


@pytest.mark.parametrize("name", ["MvDA", "MvDA_CCA"])
def test_mean_constraints_are_blocks_and_a_mean_factor(name):
    """MvDA and MvDA_CCA's constraint comes as the view blocks
    X_s H X_s^T + gamma I and the factor Z = sqrt(n) U Q of the mean term,
    Z Z^T = n U (I - 1 1^T / v) U^T with U = blockdiag(mu_s); at n <= d
    MvDA_CCA's objective is a SampleObjective."""
    ds = random_dataset(seed=30, dims=(10, 10, 10), classes=3, n=12)
    method = MethodId(name, k=2)
    prob = build(method, ds)
    assert (prob.objective_samples is not None) == (name == "MvDA_CCA")
    assert prob.constraint_low_rank.shape == (30, 2)
    for (rows, B), X in zip(prob.constraint_blocks, ds.views):
        X_c = center_columns(X)
        np.testing.assert_allclose(B, X_c @ X_c.T + method.gamma * np.eye(10),
                                   rtol=0, atol=1e-13 * np.abs(B).max())
    U = np.zeros((30, 3))
    for s, X in enumerate(ds.views):
        U[10 * s:10 * s + 10, s] = X.mean(axis=1)
    Z = prob.constraint_low_rank
    want = 12 * U @ (np.eye(3) - 1.0 / 3) @ U.T
    np.testing.assert_allclose(Z @ Z.T, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("name", SAMPLE_WHITENED)
def test_sample_whitening_matches_the_formed_objective(name, offset):
    """d > n, views offset by 0 and by 1e6.  The constraint blocks are the
    diagonal blocks of ``build``'s dense constraint bit for bit, zeros off
    them, where it has no low-rank term.  C's lower triangle from the samples
    matches the whitening of the formed objective to 1e-9 of max|C|, the
    formed objective's own error: its rounding of X_s X_t^T is magnified
    along the constraint's eigenvalues at gamma (3.0e-10 for MLDA and
    2.9e-10 / 4.3e-10 for MvDA_CCA at offsets 0 / 1e6 here, against
    1.4e-13 and 1.8e-13 / 2.3e-13 from the samples against a long-double
    whitening, which both are held to).  The eigenvalues agree within 1e-13
    relative with the full route on the dense pencil, or for MvDA_CCA, whose
    dense constraint rounds its n mu_s mu_s^T, with the long-double oracle."""
    ds = random_dataset(seed=30, dims=(40, 40, 40), classes=5, n=30)
    shifted = MultiViewDataset(tuple(X + offset for X in ds.views), ds.labels)
    method = MethodId(name, k=3)
    prob = build(method, shifted)
    if prob.constraint_low_rank is None:
        off_blocks = np.ones((120, 120), dtype=bool)
        for rows, B in prob.constraint_blocks:
            np.testing.assert_array_equal(prob.constraint[rows, rows], B)
            off_blocks[rows, rows] = False
        assert not prob.constraint[off_blocks].any()
    whitening = gevd._Whitening(prob.constraint_blocks, prob.constraint_low_rank)
    C = gevd._whitened_samples(prob.objective_samples, whitening)
    lower = np.tril(np.ones(C.shape, dtype=bool))
    scale = np.abs(C[lower]).max()
    formed = gevd._whitened(prob.objective, whitening)
    assert np.abs(C - formed)[lower].max() <= 1e-9 * scale
    extended = longdouble_whitened(prob.objective_samples, whitening)
    for got in (C, formed):
        assert np.abs(got - extended)[lower].max() <= 1e-9 * scale
    assert np.abs(C - extended)[lower].max() <= 1e-12 * scale
    if prob.constraint_low_rank is None:
        want = solve(GevdProblem(prob.objective, prob.constraint, prob.k)).eigenvalues
    else:
        want = longdouble_mean_oracle(shifted, method.gamma, method.lam)[0][:3]
    np.testing.assert_allclose(solve(prob).eigenvalues, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("name", ["MvDA", "MvDA_CCA"])
def test_mean_term_keeps_large_view_means_exact(name, offset):
    """Views offset by 0 and 1e6, d > n.  Both routes against the
    long-double oracle (``helpers.longdouble_mean_oracle``), which never
    forms B: the split constraint's eigenvalues and max|P^T B P - I|
    measured 3e-16 to 1.8e-15 at both offsets (7.4e-16 at 1e6).  The dense
    constraint of the parent's route (``helpers.parent_constraint``)
    measured 1.0e-15 to 1.5e-15 at offset 0, 3.5e-8 at 1e4, and at 1e6 it
    rounds n mu_s mu_s^T (~1e15) far above gamma and is not positive
    definite: the split is the closer route."""
    ds = random_dataset(seed=30, dims=(40, 40, 40), classes=5, n=30)
    shifted = MultiViewDataset(tuple(X + offset for X in ds.views), ds.labels)
    method = MethodId(name, k=3)
    prob = build(method, shifted)
    eigenvalues, B_0, Z = longdouble_mean_oracle(
        shifted, method.gamma, method.lam if name == "MvDA_CCA" else 0.0)
    terms = spec_terms(method, shifted.labels, shifted.n_samples, 3)
    whole = ClassStatistics(shifted.views, terms[0].kernel.Y, "full")
    dense = parent_constraint(terms, whole)
    dense[np.diag_indices_from(dense)] += method.gamma
    routes = {"split": prob, "dense": GevdProblem(prob.objective, dense, 3)}
    errors = {}
    for route, problem in routes.items():
        try:
            solution = solve(problem)
        except NumericalError as err:
            assert route == "dense" and offset == 1e6, err
            assert "not positive definite" in str(err)
            continue
        P = solution.P.astype(np.longdouble)
        ZP = Z.T @ P
        orth = float(np.abs(P.T @ B_0 @ P + ZP.T @ ZP - np.eye(3)).max())
        eig = np.max(np.abs(solution.eigenvalues - eigenvalues[:3]) / eigenvalues[:3])
        errors[route] = max(orth, eig)
    assert errors["split"] <= 1e-14
    if offset == 0.0:
        assert errors["dense"] <= 1e-14
    else:
        assert "dense" not in errors


@pytest.mark.parametrize("dim, n", [(50, 1500), (250, 250)])
def test_mean_constraints_keep_the_dense_route_spectrum(dim, n):
    """At the benchmark's tall and wide shapes, seed 1, MvDA's and
    MvDA_CCA's eigenvalues from the blocks and the mean factor are those of
    the parent's one-array constraint (``helpers.parent_constraint``) on the
    full route, within 1e-10 relative (measured: 2.9e-12 wide, 1.3e-15
    tall)."""
    ds = make_toy_dataset(classes=10, views=3, samples=n, dims=(dim,) * 3, seed=1)
    for name in ("MvDA", "MvDA_CCA"):
        method = MethodId(name, k=9)
        prob = build(method, ds)
        terms = spec_terms(method, ds.labels, ds.n_samples, 3)
        dense = parent_constraint(terms, ClassStatistics.of(terms, ds.views))
        dense[np.diag_indices_from(dense)] += method.gamma
        want = solve(GevdProblem(prob.objective, dense, 9)).eigenvalues
        np.testing.assert_allclose(solve(prob).eigenvalues, want, rtol=1e-10,
                                   atol=0, err_msg=name)


def test_a_fold_that_overflows_is_not_positive_definite():
    """A subnormal block at 1e-320 whitens a finite low-rank factor, whose
    Z Z^T is finite, beyond the largest double: I + V V^T is not a positive
    definite double, and the solve raises the Cholesky's NumericalError,
    without numpy warnings."""
    blocks = [1e-320 * np.eye(3), np.eye(2)]
    Z = np.full((5, 1), 1e153)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prob = GevdProblem(np.eye(5), LowRankBlocks(blocks, Z), 1)
        with pytest.raises(NumericalError, match="not positive definite"):
            solve(prob)


@pytest.mark.parametrize("name", ["MvDA", "MvDA_CCA"])
def test_an_overflowing_mean_term_is_a_numerical_error(name):
    """Views offset by 1e155 overflow n mu_s mu_s^T but not the view blocks:
    the mean factor cannot rule out overflow, so the dense constraint is
    formed and fails its check, as the parent's one array did, without
    numpy warnings."""
    ds = random_dataset(seed=9, dims=(40, 40, 40), classes=3, n=30)
    far = MultiViewDataset(tuple(X + 1e155 for X in ds.views), ds.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="constraint matrix has non-finite"):
            fit_method(MethodId(name, k=2), far)


@pytest.mark.parametrize("name", SAMPLE_WHITENED)
def test_sample_whitened_fit_of_an_overflowing_pencil_is_a_numerical_error(name):
    """Views near 1e160 with d > n: the samples cannot rule out overflow, so
    the dense objective is formed and fails its check as a given one would,
    without numpy warnings."""
    ds = random_dataset(seed=9, dims=(40, 40, 40), classes=3, n=30)
    huge = MultiViewDataset(tuple(1e160 * X for X in ds.views), ds.labels)
    assert build(MethodId(name, k=2), ds).objective_samples is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="objective matrix has non-finite"):
            fit_method(MethodId(name, k=2), huge)


@pytest.mark.parametrize("name", ["MCCA", "MvOPLS"])
def test_factored_fit_of_an_overflowing_pencil_is_a_numerical_error(name):
    """Views near 1e160 with d > n: the samples (MCCA) or class (MvOPLS)
    factor cannot rule out overflow, so the dense objective is formed and
    fails its check as a given one would, without numpy warnings."""
    ds = random_dataset(seed=9, dims=(40, 40, 40), classes=3, n=30)
    huge = MultiViewDataset(tuple(1e160 * X for X in ds.views), ds.labels)
    assert build(MethodId(name, k=2), ds).objective_factor is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="objective matrix has non-finite"):
            fit_method(MethodId(name, k=2), huge)


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
