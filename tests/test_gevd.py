"""Generalized eigensolver tests: oracles, invariants, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from helpers import dense_gevd
from mvsubspace.gevd import GevdProblem, NumericalError, objective_value, solve
from mvsubspace.scatter import symmetrize


def test_diagonal_oracle():
    # pencil (diag(4,3), diag(4,1)): ratios are 1 and 3, top vector is e2 scaled
    sol = solve(GevdProblem(np.diag([4.0, 3.0]), np.diag([4.0, 1.0]), 1))
    np.testing.assert_allclose(sol.eigenvalues, [3.0], atol=1e-12)
    np.testing.assert_allclose(sol.P, [[0.0], [1.0]], atol=1e-12)
    assert sol.spectrum_gap == pytest.approx(2.0, abs=1e-12)


def test_identity_constraint_reduces_to_eigh():
    sol = solve(GevdProblem(np.diag([2.0, 1.0]), np.eye(2), 1))
    np.testing.assert_allclose(sol.P, [[1.0], [0.0]], atol=1e-12)


def _random_pencil(seed, d=7, k=3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    A = 0.5 * (A + A.T)
    R = rng.standard_normal((d, d))
    B = R @ R.T + d * np.eye(d)
    return GevdProblem(A, B, k)


def _pencil_with_spectrum(seed, spectrum, k):
    """A pencil whose generalized eigenvalues are ``spectrum``.

    A = L Q diag(spectrum) Q^T L^T against B = L L^T, with B a non-diagonal
    SPD matrix and Q a random orthogonal matrix.
    """
    d = len(spectrum)
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, d))
    B = R @ R.T / d + np.eye(d)
    L = np.linalg.cholesky(B)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    LQ = L @ Q
    return GevdProblem((LQ * spectrum) @ LQ.T, B, k)


@pytest.mark.parametrize("d", [7, 60, 300])
@pytest.mark.parametrize("kind", ["1", "3", "d-1", "d"])
def test_solve_matches_the_full_spectrum_oracle(d, kind):
    """The top-(k+1) solve returns what the full-spectrum solve returns.

    The spectrum is d distinct values one apart, so every eigenvector is
    determined up to roundoff and the sign convention makes P comparable.
    """
    k = {"1": 1, "3": 3, "d-1": d - 1, "d": d}[kind]
    rng = np.random.default_rng(d + k)
    spectrum = rng.permutation(d) - (d - 1) / 2.0
    prob = _pencil_with_spectrum(d * 31 + k, spectrum, k)
    sol, want = solve(prob), dense_gevd(prob)
    tol = 1e-12 * np.abs(spectrum).max()
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=tol)
    assert sol.spectrum_gap == pytest.approx(want.spectrum_gap, rel=0, abs=tol)
    assert sol.P.shape == want.P.shape == (d, k)
    np.testing.assert_allclose(sol.P, want.P, rtol=0, atol=tol)  # every column


@pytest.mark.parametrize("d", [8, 60])
def test_tied_spectrum_matches_the_oracle_by_subspace_angle(d):
    """A repeated eigenvalue inside the top k: only the span is comparable."""
    spectrum = np.concatenate([[3.0, 3.0, 2.0], 1.0 - np.arange(d - 3)])
    prob = _pencil_with_spectrum(d, spectrum, 3)
    sol, want = solve(prob), dense_gevd(prob)
    tol = 1e-12 * np.abs(spectrum).max()
    np.testing.assert_allclose(sol.eigenvalues, [3.0, 3.0, 2.0], rtol=0, atol=tol)
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=tol)
    assert sol.spectrum_gap == pytest.approx(want.spectrum_gap, rel=0, abs=tol)
    assert subspace_angles(sol.P[:, :2], want.P[:, :2]).max() <= 1e-10
    np.testing.assert_allclose(sol.P[:, 2], want.P[:, 2], rtol=0, atol=tol)
    np.testing.assert_allclose(
        sol.P.T @ prob.constraint @ sol.P, np.eye(3), rtol=0, atol=1e-10
    )


@pytest.mark.parametrize("seed", range(8))
def test_solution_invariants(seed):
    prob = _random_pencil(seed)
    sol = solve(prob)
    P, lam = sol.P, sol.eigenvalues
    np.testing.assert_allclose(P.T @ prob.constraint @ P, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(
        prob.objective @ P, prob.constraint @ P @ np.diag(lam), atol=1e-9
    )
    assert np.all(np.diff(lam) <= 1e-12)  # descending
    assert objective_value(sol) == pytest.approx(np.trace(P.T @ prob.objective @ P))


def test_sign_convention_is_deterministic():
    prob = _random_pencil(42)
    a = solve(prob).P
    b = solve(prob).P
    np.testing.assert_array_equal(a, b)
    # largest-magnitude entry of each column is positive
    idx = np.argmax(np.abs(a), axis=0)
    assert np.all(a[idx, np.arange(a.shape[1])] > 0)


def test_full_k_has_zero_gap():
    prob = _random_pencil(1, d=5, k=5)
    assert solve(prob).spectrum_gap == 0.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_whitened_objective_trace_is_recovered(seed):
    """Summing all d eigenvalues reproduces tr(B^-1 A)."""
    prob = _random_pencil(seed, d=5, k=5)
    sol = solve(prob)
    want = np.trace(np.linalg.solve(prob.constraint, prob.objective))
    assert sol.eigenvalues.sum() == pytest.approx(want, rel=1e-9)


def test_indefinite_constraint_raises():
    with pytest.raises(NumericalError, match="positive definite"):
        solve(GevdProblem(np.eye(2), np.diag([1.0, -1.0]), 1))


def test_problem_validation():
    with pytest.raises(ValueError, match="out of range"):
        GevdProblem(np.eye(2), np.eye(2), 3)
    with pytest.raises(ValueError, match="out of range"):
        GevdProblem(np.eye(2), np.eye(2), 0)
    with pytest.raises(ValueError, match="square"):
        GevdProblem(np.ones((2, 3)), np.eye(2), 1)
    with pytest.raises(ValueError, match="share a shape"):
        GevdProblem(np.eye(2), np.eye(3), 1)
    with pytest.raises(ValueError, match="not symmetric"):
        GevdProblem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sides_raise_among_large_entries(bad):
    # the check reads one max of |M|; a NaN must not hide behind 1e300
    M = np.full((3, 3), 1e300)
    M[1, 2] = M[2, 1] = bad
    with pytest.raises(NumericalError, match="objective matrix has non-finite"):
        GevdProblem(M, np.eye(3), 1)
    with pytest.raises(NumericalError, match="constraint matrix has non-finite"):
        GevdProblem(np.eye(3), M, 1)


def test_sides_are_symmetrized_only_when_asymmetric():
    rng = np.random.default_rng(5)
    R = rng.standard_normal((4, 4))
    S = R + R.T
    nearly = S.copy()
    nearly[0, 1] += 1e-13
    problem = GevdProblem(S, nearly, 2)
    assert problem.objective is S
    np.testing.assert_array_equal(problem.constraint, (nearly + nearly.T) * 0.5)
    np.testing.assert_array_equal(problem.constraint, problem.constraint.T)


def _factored_pencil(seed, spectrum, d, k):
    """A pencil (S M S^T, B) whose generalized eigenvalues are ``spectrum``
    plus d - r zeros, with the factor (S, M) attached.

    S = L Q W and M = W^T diag(spectrum) W, with B = L L^T non-diagonal, Q a
    random d x r orthonormal block and W a random r x r rotation, so M is
    dense and has the signs of ``spectrum``.
    """
    r = len(spectrum)
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, d))
    B = R @ R.T / d + np.eye(d)
    Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    W, _ = np.linalg.qr(rng.standard_normal((r, r)))
    S = np.linalg.cholesky(B) @ Q @ W
    M = (W.T * spectrum) @ W
    return GevdProblem((S @ M) @ S.T, B, k, (S, M))


@pytest.mark.parametrize("d", [7, 60, 300])
@pytest.mark.parametrize("k_kind", ["1", "c-1"])
@pytest.mark.parametrize("sign", ["psd", "indefinite"])
def test_factored_route_matches_the_full_spectrum_oracle(d, k_kind, sign):
    """Solving in the factor's rank returns what the full-spectrum solve
    returns, including lambda_(k+1) from the merged list (from Lambda for a
    definite M, a padded zero for the indefinite one)."""
    c = 2 if d == 7 else 10
    k = 1 if k_kind == "1" else c - 1
    spectrum = np.arange(c, 0, -1.0)
    if sign == "indefinite":  # c - 1 positive eigenvalues and one negative
        spectrum[-1] = -2.0
    prob = _factored_pencil(d * 7 + k, spectrum, d, k)
    sol, want = solve(prob), dense_gevd(prob)
    assert sol.route == "factored"
    tol = 1e-12 * np.abs(spectrum).max()
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=tol)
    np.testing.assert_allclose(sol.eigenvalues, np.sort(spectrum)[::-1][:k], atol=tol)
    assert sol.spectrum_gap == pytest.approx(want.spectrum_gap, rel=0, abs=tol)
    np.testing.assert_allclose(sol.P, want.P, rtol=0, atol=1e-10)  # every column
    np.testing.assert_allclose(
        sol.P.T @ prob.constraint @ sol.P, np.eye(k), rtol=0, atol=1e-10
    )


def test_factored_route_with_a_tie_matches_the_oracle_by_subspace_angle():
    spectrum = np.array([3.0, 3.0, 2.0, 1.0, 0.5])
    prob = _factored_pencil(11, spectrum, 60, 3)
    sol, want = solve(prob), dense_gevd(prob)
    assert sol.route == "factored"
    tol = 1e-12 * np.abs(spectrum).max()
    np.testing.assert_allclose(sol.eigenvalues, [3.0, 3.0, 2.0], rtol=0, atol=tol)
    assert sol.spectrum_gap == pytest.approx(want.spectrum_gap, rel=0, abs=tol)
    assert subspace_angles(sol.P[:, :2], want.P[:, :2]).max() <= 1e-10
    np.testing.assert_allclose(sol.P[:, 2], want.P[:, 2], rtol=0, atol=1e-10)


def test_factored_route_drops_the_null_space_of_m():
    """A factor column that M annihilates but whitening magnifies must not
    cost accuracy: here the data mean, which M (a between kernel) removes
    and B holds only at its 1e-6 ridge.  Kept, it leaves residuals and
    eigenvalue errors near 3e-12; dropped, near 1e-15."""
    rng = np.random.default_rng(0)
    d, n, c = 60, 40, 6
    X = rng.standard_normal((d, n))
    X -= X.mean(axis=1, keepdims=True)
    Y = np.eye(c)[:, np.arange(n) % c]
    M = np.diag(1.0 / Y.sum(axis=1)) - 1.0 / n  # M counts = 0
    S = (X + 3.0 * rng.standard_normal((d, 1))) @ Y.T
    B = X @ X.T + 1e-6 * np.eye(d)
    prob = GevdProblem(symmetrize((S @ M) @ S.T), B, c - 1, (S, M))
    sol, full = solve(prob), solve(GevdProblem(prob.objective, B, c - 1))
    assert (sol.route, full.route) == ("factored", "full")
    A = prob.objective
    resid = np.abs(A @ sol.P - B @ sol.P * sol.eigenvalues).max()
    assert resid <= 1e-13 * np.abs(A).max()
    np.testing.assert_allclose(sol.eigenvalues, full.eigenvalues, rtol=1e-13)


@pytest.mark.parametrize(
    "case", ["k beyond rank", "k reaches the zeros", "r >= d/3", "r = d"]
)
def test_factored_route_falls_back_to_the_full_route(case):
    """The full route answers whenever the top k would include a padded zero
    or the factor's rank is not small against d."""
    spectrum, d, k = {
        "k beyond rank": ([3.0, 2.0, 0.0], 30, 3),
        "k reaches the zeros": ([3.0, 2.0, -1.0], 30, 3),
        "r >= d/3": ([4.0, 3.0, 2.0, 1.0], 12, 2),
        "r = d": ([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 6, 2),
    }[case]
    prob = _factored_pencil(5, np.array(spectrum), d, k)
    sol, want = solve(prob), dense_gevd(prob)
    assert sol.route == "full"
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", ["mismatch", "nan in S", "inf in M", "shape", "asymmetric M"])
def test_objective_factor_is_checked(bad):
    rng = np.random.default_rng(4)
    S = rng.standard_normal((9, 2))
    M = np.array([[2.0, 0.5], [0.5, -1.0]])
    A = (S @ M) @ S.T
    A = 0.5 * (A + A.T)
    if bad == "mismatch":
        M = M + 1e-6
    elif bad == "nan in S":
        S[3, 1] = np.nan
    elif bad == "inf in M":
        M[0, 0] = np.inf
    elif bad == "shape":
        M = np.eye(3)
    else:
        M[0, 1] += 1e-3
    match = {"mismatch": "does not match", "nan in S": "non-finite",
             "inf in M": "non-finite", "shape": "must be",
             "asymmetric M": "not symmetric"}[bad]
    with pytest.raises(ValueError, match=match):
        GevdProblem(A, np.eye(9), 1, (S, M))


def test_objective_factor_within_tolerance_is_accepted():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((9, 2))
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    A = symmetrize((S @ M) @ S.T)
    prob = GevdProblem(A + 1e-12, np.eye(9), 1, (S, M))
    assert prob.objective_factor[0] is S
