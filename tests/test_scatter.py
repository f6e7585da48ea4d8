"""Scatter-matrix and block-layout tests."""

import numpy as np
import pytest

from mvsubspace import (
    METHOD_NAMES,
    MethodId,
    MultiViewDataset,
    build,
    build_indicator,
    scatter,
)
from mvsubspace.framework import REGULARIZERS, spec_terms
from mvsubspace.scatter import (
    ClassStatistics,
    KernelTerm,
    LabelKernel,
    label_kernels,
    materialize,
    materialize_grads,
    pseudo_inverse_coupling,
    symmetrize,
)

from helpers import (
    EVERY_REGULARIZER,
    PENCIL_RTOL,
    balanced_labels,
    between_class_scatter,
    center_columns,
    centering_matrix,
    dense_materialize,
    dense_sides,
    densify,
    materialize_on,
    pencil_gap,
    random_dataset,
    regularized_gram_inverse,
    stacked_class_statistics,
    svd_ridge_pinv,
    within_class_scatter,
)


def test_between_plus_within_is_total():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 15))
    labels = balanced_labels(3, 15, rng)
    K = label_kernels(build_indicator(labels))
    total = X @ centering_matrix(15) @ X.T
    Sb = X @ K["between"].apply(X).T
    Sw = X @ K["within"].apply(X).T
    np.testing.assert_allclose(Sb + Sw, total, atol=1e-12)
    np.testing.assert_allclose(X @ K["centering"].apply(X).T, total, atol=1e-12)
    ind = build_indicator(labels)
    np.testing.assert_allclose(Sb, between_class_scatter(X, ind), atol=1e-12)
    np.testing.assert_allclose(Sw, within_class_scatter(X, ind), atol=1e-12)


def test_scatter_oracles():
    K = label_kernels(build_indicator(np.array([1, 2])))
    X = np.array([[1.0, -1.0]])
    np.testing.assert_allclose(X @ K["between"].apply(X).T, [[2.0]])
    np.testing.assert_allclose(X @ K["within"].apply(X).T, [[0.0]], atol=1e-15)
    np.testing.assert_allclose(
        densify(K["center_distance"]), [[0.5, -0.5], [-0.5, 0.5]]
    )


@pytest.mark.parametrize("eye", [0.0, 1.0])
def test_label_kernel_apply_matches_dense_kernel(eye):
    rng = np.random.default_rng(2)
    indicator = build_indicator(balanced_labels(3, 12, rng))
    M = symmetrize(rng.standard_normal((3, 3)))
    Z = rng.standard_normal((4, 12))
    K = eye * np.eye(12) + indicator.Y.T @ M @ indicator.Y
    got = LabelKernel(eye, indicator.Y, M).apply(Z)
    np.testing.assert_allclose(got, Z @ K, rtol=0, atol=1e-13)


# (dims, n): n above every d, d above n, one view, one view with d_s > n
# among views with d_s <= n (the representer coupling's per-view fallback),
# and d = 210 over several symmetrization tiles, the last one partial.
SHAPES = {
    "n>d": ((5, 4, 3), 40),
    "d>n": ((9, 8, 7), 6),
    "v=1": ((6,), 20),
    "mixed": ((3, 12, 4), 8),
    "tiles": ((70, 60, 80), 50),
}


@pytest.mark.parametrize("name, shape", [
    *((name, shape) for name in METHOD_NAMES
      for shape in ("n>d", "d>n", "v=1", "tiles")),
    ("MvDA_VC", "mixed"),
])
def test_method_pencils_match_dense_materialize(name, shape):
    dims, n = SHAPES[shape]
    ds = random_dataset(seed=len(dims) + n, dims=dims, classes=3, n=n)
    terms = spec_terms(MethodId(name, k=1, lam=0.3), ds.labels, n, len(dims))
    got = materialize_on(terms, ds.views)[:2]
    want = dense_materialize(terms, ds.views)
    for g, w in zip(got, want):
        assert pencil_gap(g, w) <= PENCIL_RTOL
        np.testing.assert_array_equal(g, g.T)


# The part of C_w each catalog pencil reads: the whole Gram for a dense term
# with an identity part or the representer coupling, else its view blocks.
# The part of C_w each method's statistics form at n = 40 > d = 12 and at
# n = 10 <= d, where the objectives of MCCA, MLDA, GMA and MvDA_CCA are
# whitened from the samples and read only the constraint's blocks.
GRAM_READS = {
    "MCCA": "full", "MvOPLS": "blocks", "MvLDA": "full", "MvDA": "blocks",
    "MvDA_VC": "full", "MvMDA": "blocks", "MLDA": "full", "GMA": "full",
    "MvDA_CCA": "full",
}
WIDE_GRAM_READS = {
    **GRAM_READS, "MCCA": "blocks", "MLDA": "blocks", "GMA": "blocks",
    "MvDA_CCA": "blocks",
}


def _recorded_gram_reads(name, n, monkeypatch):
    asked = []
    construct = ClassStatistics.__init__

    def recording(self, views, Y, gram=None):
        asked.append(gram)
        construct(self, views, Y, gram)

    monkeypatch.setattr(ClassStatistics, "__init__", recording)
    ds = random_dataset(seed=1, dims=(5, 4, 3), classes=3, n=n)
    build(MethodId(name, k=1), ds)
    return asked


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_the_gram_is_formed_only_where_a_layout_reads_it(name, monkeypatch):
    assert _recorded_gram_reads(name, 40, monkeypatch) == [GRAM_READS[name]]


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_wide_pencils_form_the_gram_only_where_a_layout_reads_it(name, monkeypatch):
    assert _recorded_gram_reads(name, 10, monkeypatch) == [WIDE_GRAM_READS[name]]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("gram", ["full", "blocks", None])
@pytest.mark.parametrize("dims, n", SHAPES.values(), ids=SHAPES.keys())
def test_class_statistics_match_the_stacked_oracle(dims, n, gram, order):
    ds = random_dataset(seed=len(dims) + n, dims=dims, classes=3, n=n)
    views = [np.asarray(X, order=order) for X in ds.views]
    indicator = build_indicator(ds.labels)
    got = ClassStatistics(views, indicator.Y, gram)
    want = stacked_class_statistics(views, indicator.Y, indicator.counts, gram)
    np.testing.assert_array_equal(got.counts, indicator.counts)
    np.testing.assert_array_equal(got.F, want[0])
    assert (got.C_w is None) == (want[1] is None)
    if got.C_w is not None:
        np.testing.assert_array_equal(got.C_w, want[1])
    for g, w in zip(got.C_blocks, want[2], strict=True):
        assert (g is None) == (w is None)
        if g is not None:
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("gram", ["full", "blocks", None])
@pytest.mark.parametrize("classes", [1, 3])
def test_class_statistics_keep_the_class_centred_copy(classes, gram):
    """X_w is the stacked copy centred by mu and then by the class means,
    whatever part of C_w is formed, and every Gram is a product of it."""
    ds = random_dataset(seed=51, dims=(5, 4, 3), classes=3, n=30)
    Y = build_indicator(ds.labels).Y if classes == 3 else np.ones((1, 30))
    statistics = ClassStatistics(ds.views, Y, gram)
    X = np.vstack(ds.views)
    X -= (X.sum(axis=1) / 30)[:, None]
    if classes == 3:
        X -= (statistics.S / statistics.counts) @ Y
    np.testing.assert_array_equal(statistics.X_w, X)
    assert statistics.X_w.flags.c_contiguous
    if gram == "full":
        np.testing.assert_array_equal(statistics.C_w, X @ X.T)
    elif gram == "blocks":
        for b, C_b in zip(statistics.blocks, statistics.C_blocks, strict=True):
            np.testing.assert_array_equal(C_b, X[b] @ X[b].T)


@pytest.mark.parametrize("kernel", ["centering", None])
def test_a_samples_factor_defines_the_objective(kernel):
    """One dense objective term with eye != 0 and n below 0.4 d: the factor
    is ([X_w | F'], blockdiag(eye I_n, Mt')), (X_w, I_n) for the one-class
    centering kernel, and the objective, returned as the function that
    forms it, is formed from the whole Gram of X_w as without it."""
    ds = random_dataset(seed=52, dims=(20, 20, 20), classes=3, n=12)
    Y = np.ones((1, 12)) if kernel else build_indicator(ds.labels).Y
    K = label_kernels(build_indicator(np.ones(12, dtype=int)))[kernel] if kernel else None
    terms = [KernelTerm("objective", "dense", 1.0, K),
             KernelTerm("constraint", "blockdiag", 1.0,
                        label_kernels(build_indicator(ds.labels))["within"])]
    if kernel:
        terms[1] = KernelTerm("constraint", "blockdiag", 1.0, K)
    statistics = ClassStatistics.of(terms, ds.views)
    assert statistics.C_w is None and statistics.C_blocks[0] is not None
    form, _, (S, M) = materialize(terms, statistics)
    assert callable(form)
    objective = form()
    whole = ClassStatistics(ds.views, statistics.Y, "full")
    np.testing.assert_array_equal(objective, materialize(terms, whole)[0]())
    if kernel:
        assert S is statistics.X_w
        np.testing.assert_array_equal(M, np.eye(12))
    else:
        # the identity kernel keeps the class sums and the mean: r = n + c + 1
        assert S.shape == (60, 12 + 4) and M.shape == (16, 16)
        np.testing.assert_array_equal(M[:12, :12], np.eye(12))
    assert pencil_gap(objective, symmetrize((S @ M) @ S.T)) <= PENCIL_RTOL


@pytest.mark.parametrize("order", ["C", "F"])
def test_one_class_statistics_are_exact(order):
    """With one class S = X_c 1 is exactly zero and C_w = X_c X_c^T."""
    ds = random_dataset(seed=45, dims=(5, 4, 3), n=40)
    views = [np.asarray(X + 3.0, order=order) for X in ds.views]
    statistics = ClassStatistics(views, np.ones((1, 40)), "full")
    Xc = np.vstack([center_columns(X) for X in views])
    assert not statistics.S.any()
    np.testing.assert_array_equal(
        statistics.mu, np.concatenate([X.mean(axis=1) for X in views])
    )
    np.testing.assert_array_equal(statistics.C_w, Xc @ Xc.T)


def test_materialize_refuses_statistics_the_terms_do_not_read():
    ds = random_dataset(seed=47, dims=(3, 2), classes=3, n=12)
    terms = spec_terms(MethodId("MvOPLS", k=1), ds.labels, 12, 2)
    Y = terms[0].kernel.Y
    with pytest.raises(ValueError, match="class indicator"):
        materialize(terms, ClassStatistics(ds.views, np.ones((1, 12)), "blocks"))
    with pytest.raises(ValueError, match="part of C_w"):
        materialize(terms, ClassStatistics(ds.views, Y))
    # the Gram whole serves terms that read only its blocks
    got = dense_sides(*materialize(terms, ClassStatistics(ds.views, Y, "full"))[:2])
    for got, want in zip(got, materialize_on(terms, ds.views)[:2]):
        assert pencil_gap(got, want) <= PENCIL_RTOL


@pytest.mark.parametrize("order", ["C", "F"])
def test_mcca_objective_is_the_centred_gram(order):
    ds = random_dataset(seed=46, dims=(6, 5, 4), n=50)
    views = tuple(np.asarray(X + 1e3, order=order) for X in ds.views)
    problem = build(MethodId("MCCA", k=2), MultiViewDataset(views))
    Xc = np.vstack([center_columns(X) for X in views])
    np.testing.assert_array_equal(problem.objective, Xc @ Xc.T)


@pytest.mark.parametrize("d", [1, 5, 128, 129, 300])
def test_symmetrize_in_place_matches_symmetrize(d):
    # one tile, several, and a ragged last tile: the bits of the allocating
    # (M + M^T) / 2, written into M itself
    M = np.random.default_rng(d).standard_normal((d, d))
    want = (M + M.T) * 0.5
    got = symmetrize(M)
    assert got is M
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dims, n", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("rid", REGULARIZERS)
def test_regularizers_match_dense_materialize(rid, dims, n):
    ds = random_dataset(seed=len(dims) + n, dims=dims, classes=3, n=n)
    K = label_kernels(build_indicator(ds.labels))
    terms = REGULARIZERS[rid](len(dims), K, 0.3)
    got = materialize_on(terms, ds.views)[:2]
    want = dense_materialize(terms, ds.views)
    for g, w in zip(got, want):
        assert pencil_gap(g, w) <= PENCIL_RTOL


@pytest.mark.parametrize("dims, n", [((3, 4, 2), 12), ((3, 2), 12)])
def test_grads_match_finite_differences_of_materialize(dims, n):
    """``materialize_grads`` against central differences of
    <bar_A, objective> + <bar_B, constraint> in every view entry."""
    assert {rid for rid, _ in EVERY_REGULARIZER.regularizers} == set(REGULARIZERS)
    rng = np.random.default_rng(n + len(dims))
    ds = random_dataset(seed=n, dims=dims, classes=3, n=n)
    views = [X.copy() for X in ds.views]
    terms = spec_terms(EVERY_REGULARIZER, ds.labels, n, len(dims))
    d = sum(dims)
    adjoints = tuple(symmetrize(rng.standard_normal((d, d))) for _ in range(2))

    def value():
        sides = materialize_on(terms, views)
        return sum(np.sum(bar * M) for bar, M in zip(adjoints, sides))

    grads = materialize_grads(terms, views, adjoints)
    h = 1e-6
    for X, g in zip(views, grads):
        fd = np.empty_like(X)
        for idx in np.ndindex(X.shape):
            keep = X[idx]
            X[idx] = keep + h
            up = value()
            X[idx] = keep - h
            down = value()
            X[idx] = keep
            fd[idx] = (up - down) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())


def test_grads_of_cancelling_terms_are_exactly_zero():
    ds = random_dataset(seed=3, dims=(3, 2), classes=3, n=9)
    H = label_kernels(build_indicator(ds.labels))["centering"]
    terms = [KernelTerm("constraint", "blockdiag", c, H) for c in (1.0, -1.0)]
    adjoints = (np.zeros((5, 5)), symmetrize(np.ones((5, 5))))
    for g in materialize_grads(terms, list(ds.views), adjoints):
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_terms_of_one_pencil_share_one_indicator():
    rng = np.random.default_rng(5)
    views = [rng.standard_normal((3, 6))]
    first = label_kernels(build_indicator(np.array([1, 1, 2, 2, 3, 3])))
    other = label_kernels(build_indicator(np.array([1, 2, 3, 1, 2, 3])))
    with pytest.raises(ValueError, match="one class indicator"):
        materialize_on([
            KernelTerm("objective", "dense", 1.0, first["between"]),
            KernelTerm("constraint", "blockdiag", 1.0, other["within"]),
        ], views)
    # an equal indicator held in another array is the same indicator
    copy = LabelKernel(1.0, first["within"].Y.copy(), first["within"].M)
    materialize_on([
        KernelTerm("objective", "dense", 1.0, first["between"]),
        KernelTerm("constraint", "blockdiag", 1.0, copy),
    ], views)


def test_block_diagonal_zeroes_couplings():
    rng = np.random.default_rng(4)
    views = [rng.standard_normal((2, 6)), rng.standard_normal((3, 6))]
    want = np.zeros((5, 5))
    want[:2, :2] = views[0] @ views[0].T
    want[2:, 2:] = views[1] @ views[1].T
    objective, constraint, _ = materialize_on(
        [KernelTerm("objective", "blockdiag", 1.0)], views
    )
    np.testing.assert_allclose(objective, want, atol=1e-13)
    np.testing.assert_array_equal(constraint, np.zeros((5, 5)))


def _coupling(F):
    v = len(F)
    return np.block([
        [(v - 1) * F[s] @ F[s].T if s == t else -F[s] @ F[t].T
         for t in range(v)]
        for s in range(v)
    ])


def test_regularized_gram_inverse():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((9, 5))  # tall: X^T X is full rank
    K = regularized_gram_inverse(X)
    G = X.T @ X
    eps = 1e-10 * np.trace(G) / 9
    np.testing.assert_allclose(K @ (G + eps * np.eye(5)), np.eye(5), atol=1e-8)
    # d > n: the library inverts this same n x n Gram
    views = [X, rng.standard_normal((7, 5))]
    want = _coupling([Z @ regularized_gram_inverse(Z) for Z in views])
    np.testing.assert_allclose(pseudo_inverse_coupling(views), want, atol=1e-8)


@pytest.mark.parametrize("d, n", [(50, 2000), (60, 25)])
def test_pseudo_inverse_coupling_matches_svd_oracle(d, n):
    # at n >> d an n x n inverse keeps only ~6 significant digits
    rng = np.random.default_rng(8)
    views = [rng.standard_normal((d, n)) for _ in range(3)]
    want = _coupling([svd_ridge_pinv(X) for X in views])
    got = pseudo_inverse_coupling(views)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12


def test_pseudo_inverse_coupling_structure():
    rng = np.random.default_rng(7)
    views = [rng.standard_normal((6, 4)), rng.standard_normal((5, 4))]
    M = pseudo_inverse_coupling(views)
    np.testing.assert_allclose(M, M.T, atol=1e-12)
    # single view: nothing to couple
    alone = pseudo_inverse_coupling(views[:1])
    np.testing.assert_allclose(alone, np.zeros((6, 6)), atol=1e-15)


def test_symmetrize():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_array_equal(symmetrize(A), [[1.0, 1.0], [1.0, 3.0]])
