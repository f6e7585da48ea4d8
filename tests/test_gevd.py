"""Generalized eigensolver tests: oracles, invariants, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from helpers import dense_gevd
from mvsubspace import gevd
from mvsubspace.gevd import GevdProblem, NumericalError, solve
from mvsubspace.scatter import symmetrize, takes_factored_route


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
    assert lam.sum() == pytest.approx(np.trace(P.T @ prob.objective @ P))


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
    given = nearly.copy()
    problem = GevdProblem(S, nearly, 2)
    assert problem.objective is S
    np.testing.assert_array_equal(problem.constraint, (nearly + nearly.T) * 0.5)
    np.testing.assert_array_equal(problem.constraint, problem.constraint.T)
    # the caller's array is symmetrized in a copy, not in place, on either side
    np.testing.assert_array_equal(nearly, given)
    GevdProblem(nearly, S + 10 * np.eye(4), 2)
    np.testing.assert_array_equal(nearly, given)


def test_an_asymmetric_factor_is_symmetrized_in_a_copy():
    rng = np.random.default_rng(7)
    S = rng.standard_normal((9, 2))
    M = np.array([[2.0, 0.5], [0.5, -1.0]])
    A = (S @ M) @ S.T
    A = 0.5 * (A + A.T)
    M[0, 1] += 1e-13
    given = M.copy()
    problem = GevdProblem(A, np.eye(9), 1, (S, M))
    np.testing.assert_array_equal(problem.objective_factor[1], (given + given.T) * 0.5)
    np.testing.assert_array_equal(M, given)


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
    "case", ["k beyond rank", "k reaches the zeros", "r >= 0.4 d", "r = d"]
)
def test_factored_route_falls_back_to_the_full_route(case):
    """The full route answers whenever the top k would include a padded zero
    or the factor's rank is not small against d (r = 4 at d = 10 is at the
    measured ratio 0.4, not below it)."""
    assert takes_factored_route(3, 10) and not takes_factored_route(4, 10)
    spectrum, d, k = {
        "k beyond rank": ([3.0, 2.0, 0.0], 30, 3),
        "k reaches the zeros": ([3.0, 2.0, -1.0], 30, 3),
        "r >= 0.4 d": ([4.0, 3.0, 2.0, 1.0], 10, 2),
        "r = d": ([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 6, 2),
    }[case]
    prob = _factored_pencil(5, np.array(spectrum), d, k)
    sol, want = solve(prob), dense_gevd(prob)
    assert sol.route == "full"
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m_kind", ["psd", "indefinite", "diagonal"])
def test_large_rank_factors_match_the_full_spectrum_oracle(m_kind):
    """From r = 8 (k + 1), for M >= 0, only the core's top k + 1 pairs are
    computed; a diagonal M is used as its own eigendecomposition.  The
    answer is the full spectrum's."""
    d, r, k = 300, 90, 9
    assert r >= gevd._LARGE_RANK_RATIO * (k + 1)
    spectrum = np.linspace(10.0, 1.0, r)
    if m_kind == "indefinite":
        spectrum[-5:] = -spectrum[-5:]
    if m_kind == "diagonal":
        rng = np.random.default_rng(21)
        R = rng.standard_normal((d, d))
        B = R @ R.T / d + np.eye(d)
        Q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        S, M = np.linalg.cholesky(B) @ Q, np.diag(spectrum)
        prob = GevdProblem((S @ M) @ S.T, B, k, (S, M))
    else:
        prob = _factored_pencil(22, spectrum, d, k)
    sol, want = solve(prob), dense_gevd(prob)
    assert sol.route == "factored"
    tol = 1e-12 * np.abs(spectrum).max()
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=tol)
    np.testing.assert_allclose(sol.eigenvalues, spectrum[:k], rtol=0, atol=tol)
    assert sol.spectrum_gap == pytest.approx(want.spectrum_gap, rel=0, abs=tol)
    np.testing.assert_allclose(sol.P, want.P, rtol=0, atol=1e-10)


def _deferred(prob, calls):
    """``prob`` as a factor-defined problem whose objective function counts
    its calls in ``calls``."""
    def form():
        calls.append(1)
        return prob.objective.copy()

    return GevdProblem(form, prob.constraint, prob.k, prob.objective_factor)


def test_a_factor_defined_problem_forms_its_objective_only_when_read():
    prob = _factored_pencil(3, np.array([3.0, 2.0, -1.0]), 30, 2)
    calls = []
    deferred = _deferred(prob, calls)
    sol = solve(deferred)
    assert sol.route == "factored" and not calls
    np.testing.assert_array_equal(sol.P, solve(prob).P)
    retry = deferred.with_constraint(2.0 * prob.constraint)
    assert retry.objective_factor is not None and not calls
    np.testing.assert_array_equal(deferred.objective, prob.objective)
    np.testing.assert_array_equal(deferred.objective, prob.objective)
    assert len(calls) == 1  # formed once, then kept


def test_the_full_route_fallback_forms_the_objective():
    """k beyond the factor's rank: the full route reads the objective."""
    prob = _factored_pencil(4, np.array([3.0, 2.0]), 30, 3)
    calls = []
    sol = solve(_deferred(prob, calls))
    assert sol.route == "full" and calls == [1]
    np.testing.assert_array_equal(sol.P, solve(prob).P)


def test_a_factor_defined_problem_checks_its_factor_but_not_the_product():
    rng = np.random.default_rng(5)
    S = rng.standard_normal((9, 2))
    M = np.array([[2.0, 0.5], [0.5, -1.0]])
    shaped = GevdProblem(lambda: None, np.eye(9), 1, (S, M + np.eye(2)))
    assert shaped.objective_factor[1][0, 0] == 3.0  # S M S^T is not compared
    asymmetric = M.copy()
    asymmetric[0, 1] += 1e-13
    problem = GevdProblem(lambda: None, np.eye(9), 1, (S, asymmetric))
    np.testing.assert_array_equal(
        problem.objective_factor[1], (asymmetric + asymmetric.T) * 0.5
    )
    for factor, match in (((S, np.eye(3)), "must be"),
                          ((S, M + [[0.0, 1e-3], [0.0, 0.0]]), "not symmetric")):
        with pytest.raises(ValueError, match=match):
            GevdProblem(lambda: None, np.eye(9), 1, factor)
    with pytest.raises(ValueError, match="needs its factor"):
        GevdProblem(lambda: None, np.eye(9), 1)


@pytest.mark.parametrize("bad", ["huge S", "inf in M"])
def test_a_factor_that_may_overflow_forms_and_checks_its_objective(bad):
    """Where the bound max_i ||S_i||_1^2 max(max|M|, 1) cannot rule out
    overflow, the objective is formed when the problem is made and checked as
    a given one: non-finite entries raise NumericalError, without numpy
    warnings."""
    rng = np.random.default_rng(8)
    S = rng.standard_normal((9, 2))
    M = np.array([[2.0, 0.5], [0.5, -1.0]])
    if bad == "huge S":
        S *= 1e160
    else:
        M[0, 0] = np.inf
    calls = []

    def form():
        calls.append(1)
        return symmetrize((S @ M) @ S.T)

    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="objective matrix has non-finite"):
            GevdProblem(form, np.eye(9), 1, (S, M))
    assert calls == [1]


def test_a_factor_past_the_bound_is_formed_when_made():
    """A row of S near 1e155 puts the bound past the largest double although
    M = 1e-20 I keeps S M S^T finite: the objective is formed when the
    problem is made, passes the checks of a given one, and is kept."""
    rng = np.random.default_rng(9)
    S = rng.standard_normal((9, 2))
    S[4] = 1e155
    M = 1e-20 * np.eye(2)
    calls = []

    def form():
        calls.append(1)
        return symmetrize((S @ M) @ S.T)

    problem = GevdProblem(form, np.eye(9), 1, (S, M))
    assert calls == [1]
    assert np.isfinite(problem.objective).all() and calls == [1]
    assert solve(problem).eigenvalues[0] == pytest.approx(2e290, rel=1e-12)


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


def _block_factor(rng, dims):
    """A block-diagonal lower-triangular L, one well-conditioned Cholesky
    factor per entry of ``dims``; L L^T is then exactly zero off the blocks."""
    L = np.zeros((sum(dims),) * 2)
    start = 0
    for d_s in dims:
        R = rng.standard_normal((d_s, d_s))
        rows = slice(start, start + d_s)
        L[rows, rows] = np.linalg.cholesky(R @ R.T / d_s + np.eye(d_s))
        start += d_s
    return L


def _block_pencil(seed, dims, spectrum, k, factored):
    """A pencil with constraint blockdiag over ``dims`` and generalized
    eigenvalues ``spectrum`` (plus zeros up to d when ``factored``, which
    attaches the objective factor (S, M))."""
    rng = np.random.default_rng(seed)
    L = _block_factor(rng, dims)
    d, r = L.shape[0], len(spectrum)
    Q, _ = np.linalg.qr(rng.standard_normal((d, r if factored else d)))
    if not factored:
        LQ = L @ Q
        return GevdProblem((LQ * spectrum) @ LQ.T, L @ L.T, k)
    W, _ = np.linalg.qr(rng.standard_normal((r, r)))
    S = L @ Q @ W
    M = (W.T * spectrum) @ W
    return GevdProblem((S @ M) @ S.T, L @ L.T, k, (S, M))


@pytest.fixture
def potrf_orders(monkeypatch):
    """The order of every matrix ``solve`` hands to ``potrf``."""
    orders, potrf = [], gevd.dpotrf

    def counting(B, **kwargs):
        orders.append(B.shape[0])
        return potrf(B, **kwargs)

    monkeypatch.setattr(gevd, "dpotrf", counting)
    return orders


@pytest.mark.parametrize("dims", [(5, 4, 3), (12,)], ids=["uneven", "v=1"])
@pytest.mark.parametrize("route", ["full", "factored"])
def test_block_diagonal_constraint_matches_the_oracle(dims, route, potrf_orders):
    """One factorization per view block; the answer is the dense one's."""
    spectrum = np.array([3.0, 2.0, -1.0]) if route == "factored" else (
        np.arange(sum(dims), 0, -1.0) - 4.0)
    prob = _block_pencil(len(dims), dims, spectrum, 2, route == "factored")
    sol, want = solve(prob), dense_gevd(prob)
    assert sol.route == route
    assert potrf_orders == list(dims)
    tol = 1e-12 * np.abs(spectrum).max()
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=tol)
    assert sol.spectrum_gap == pytest.approx(want.spectrum_gap, rel=0, abs=tol)
    np.testing.assert_allclose(sol.P, want.P, rtol=0, atol=1e-10)


@pytest.mark.parametrize("route", ["full", "factored"])
def test_a_tiny_entry_off_the_blocks_joins_them(route, potrf_orders):
    """1e-300 between the first and the last view block: a single
    factorization of the whole constraint, and still the oracle's answer."""
    spectrum = np.array([3.0, 2.0, -1.0]) if route == "factored" else (
        np.arange(12, 0, -1.0) - 4.0)
    prob = _block_pencil(3, (5, 4, 3), spectrum, 2, route == "factored")
    B = prob.constraint.copy()
    B[10, 1] = B[1, 10] = 1e-300
    prob = GevdProblem(prob.objective, B, 2, prob.objective_factor)
    sol, want = solve(prob), dense_gevd(prob)
    assert potrf_orders == [12]
    np.testing.assert_allclose(sol.eigenvalues, want.eigenvalues, rtol=0, atol=1e-11)
    np.testing.assert_allclose(sol.P, want.P, rtol=0, atol=1e-10)


@pytest.mark.parametrize("route", ["full", "factored"])
def test_a_constraint_given_as_blocks_is_not_scanned(route, potrf_orders, monkeypatch):
    """Blocks in, one ``potrf`` per block and no search for zeros; the answer
    is the dense constraint's bit for bit, and that array is formed only
    when read."""
    spectrum = np.array([3.0, 2.0, -1.0]) if route == "factored" else (
        np.arange(12, 0, -1.0) - 4.0)
    dense = _block_pencil(3, (5, 4, 3), spectrum, 2, route == "factored")
    want = solve(dense)
    potrf_orders.clear()
    blocks = [dense.constraint[b, b] for b in (slice(0, 5), slice(5, 9), slice(9, 12))]
    monkeypatch.setattr(gevd, "_diagonal_blocks", None)
    prob = GevdProblem(dense.objective, blocks, 2, dense.objective_factor)
    sol = solve(prob)
    assert potrf_orders == [5, 4, 3] and prob._constraint is None
    assert sol.route == route and prob.dim == 12
    np.testing.assert_array_equal(sol.P, want.P)
    np.testing.assert_array_equal(prob.constraint, dense.constraint)
    retry = prob.with_constraint([2.0 * B for B in blocks])
    assert [B.shape for _, B in retry.constraint_blocks] == [(5, 5), (4, 4), (3, 3)]


def test_constraint_blocks_are_checked_as_the_dense_side():
    """The finite and symmetry checks of a dense constraint, block by block:
    a block nearly symmetric is symmetrized, not the caller's array."""
    good = [np.eye(2), 2.0 * np.eye(3)]
    nearly = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
    prob = GevdProblem(np.eye(5), [nearly, good[1]], 1)
    np.testing.assert_array_equal(prob.constraint_blocks[0][1], (nearly + nearly.T) * 0.5)
    assert nearly[1, 0] == 1.0 + 1e-14
    for bad, error, match in ((np.array([[1.0, np.inf], [np.inf, 1.0]]), NumericalError,
                               "constraint matrix has non-finite"),
                              (np.array([[1.0, 1.0], [0.0, 1.0]]), ValueError,
                               "constraint matrix is not symmetric"),
                              (np.ones((2, 3)), ValueError, "share a shape")):
        with pytest.raises(error, match=match):
            GevdProblem(np.eye(5), [bad, good[1]], 1)
    with pytest.raises(ValueError, match="constraint must be a square"):
        GevdProblem(lambda: None, [np.ones((2, 3))], 1, (np.ones((2, 1)), np.eye(1)))
    with pytest.raises(NumericalError, match="positive definite"):
        solve(GevdProblem(np.eye(5), [good[0], -good[1]], 1))


def test_blocks_are_found_from_the_zeros():
    B = np.eye(9)
    B[1, 2] = B[2, 1] = 0.5  # joins rows 1 and 2
    B[3, 5] = B[5, 3] = 0.5  # joins rows 3 to 5, whose subdiagonal is zero
    B[8, 6] = B[6, 8] = 0.5  # joins rows 6 to 8
    blocks = gevd._diagonal_blocks(B)
    assert [(b.start, b.stop) for b in blocks] == [(0, 1), (1, 3), (3, 6), (6, 9)]


def test_an_indefinite_view_block_raises(potrf_orders):
    L = _block_factor(np.random.default_rng(0), (5, 4, 3))
    B = L @ L.T
    B[6, 6] = -1.0  # inside the middle block
    with pytest.raises(NumericalError, match="positive definite"):
        solve(GevdProblem(np.eye(12), B, 1))
    assert potrf_orders == [5, 4]


@pytest.mark.parametrize("d", [1, 63, 64, 65, 150])
def test_check_sweep_reads_max_and_asymmetry(d):
    assert 150 % gevd._SWEEP_ROWS  # a last stripe shorter than the others
    M = np.random.default_rng(d).standard_normal((d, d))
    scale, asymmetry = gevd._sweep(M)
    assert scale == np.abs(M).max()
    assert asymmetry == np.abs(M - M.T).max()


# In a 150 x 150 side (stripes of 64 rows: 64, 64, 22): a diagonal block, an
# off-diagonal block on either side of the diagonal, the last partial block.
_FAULT_PLACES = {"diagonal": (70, 75), "upper": (10, 100), "lower": (100, 10),
                 "last partial": (140, 147), "last row": (149, 3)}


@pytest.mark.parametrize("place", _FAULT_PLACES)
@pytest.mark.parametrize("fault", ["nan", "inf", "-inf", "asymmetry"])
@pytest.mark.parametrize("side", ["objective", "constraint"])
def test_check_sweep_finds_a_fault_anywhere(place, fault, side):
    rng = np.random.default_rng(3)
    R = rng.standard_normal((150, 150))
    good = R @ R.T + 150 * np.eye(150)
    bad = good.copy()
    i, j = _FAULT_PLACES[place]
    if fault == "asymmetry":
        bad[i, j] += 1e-6 * np.abs(good).max()
        error, match = ValueError, f"{side} matrix is not symmetric"
    else:
        bad[i, j] = float(fault)
        error, match = NumericalError, f"{side} matrix has non-finite"
    sides = {"objective": good, "constraint": good, side: bad}
    with pytest.raises(error, match=match):
        GevdProblem(sides["objective"], sides["constraint"], 1)
