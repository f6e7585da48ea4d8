"""Scatter-matrix and block-layout tests."""

import numpy as np

from mvsubspace import build_indicator
from mvsubspace.scatter import (
    blockdiag_dense,
    label_kernels,
    pseudo_inverse_coupling,
    regularized_gram_inverse,
    symmetrize,
)

from helpers import (
    balanced_labels,
    between_class_scatter,
    centering_matrix,
    densify,
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


def test_block_diagonal_zeroes_couplings():
    rng = np.random.default_rng(4)
    views = [rng.standard_normal((2, 6)), rng.standard_normal((3, 6))]
    want = np.zeros((5, 5))
    want[:2, :2] = views[0] @ views[0].T
    want[2:, 2:] = views[1] @ views[1].T
    np.testing.assert_allclose(
        blockdiag_dense([views[0] @ views[0].T, views[1] @ views[1].T]),
        want,
        atol=1e-13,
    )


def test_regularized_gram_inverse():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((9, 5))  # tall: X^T X is full rank
    K = regularized_gram_inverse(X, 0)
    G = X.T @ X
    eps = 1e-10 * np.trace(G) / 5
    np.testing.assert_allclose(K @ (G + eps * np.eye(5)), np.eye(5), atol=1e-8)


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
