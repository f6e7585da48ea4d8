"""Symmetric-definite generalized eigenvalue problems.

The solver reduces  A p = lambda B p  (A symmetric, B symmetric positive
definite) to an ordinary symmetric eigenproblem by Cholesky whitening,
B = L L^T, C = L^-1 A L^-T, C u = lambda u, p = L^-T u, and one of two
routes finds the top eigenpairs of C.

Block-diagonal constraints.  Most pencils of the package have the
constraint blockdiag(X_s K X_s^T) + gamma I, one block per view.  ``solve``
finds the finest split of B into diagonal blocks from B itself: a block
boundary is a row p with B[p:, :p] exactly zero (B is symmetric, so the
lower triangle decides).  Only rows whose subdiagonal entry B[p, p-1] is
zero are candidates, so a dense B costs one read of its subdiagonal, and a
block-diagonal one a read of its lower off-block part.  Any nonzero entry,
however small, joins the blocks it couples.  LAPACK ``potrf`` factors each
block, and L = blockdiag(L_s) is kept as its blocks: every product with
L^-1 or L^-T is one triangular solve per block, d_s^2 where a full L costs
d^2.  At 3 x 250 dims the three block factorizations took 1.1 ms against
8.9 ms for one d = 750 ``potrf`` (one BLAS thread).  A block that is not
positive definite fails as a whole B would.

Full route.  C is formed in its lower triangle and only the k + 1 largest
eigenpairs of C are computed (the k returned and one more for the spectrum
gap), since k is usually far below d.  With one block ``sygst`` forms C in
place.  With several, block (s, t), t <= s, of C is L_s^-1 A_st L_t^-T: one
triangular solve per block row and one per block column, (v + 1) d^3 / v^2
flops for v equal blocks against ``sygst``'s d^3.  Measured on one BLAS
thread with three equal blocks: 15.1 against 18.5 ms at d = 750, 0.37
against 0.53 ms at d = 150, the two agreeing to 1e-15 of max|C|.

Factored route.  A problem may carry an objective factor (S, M) with
A = S M S^T, S d x r and M r x r symmetric (not necessarily semidefinite).
First M = V D V^T (a diagonal M is its own, V = I, with no ``eigh`` and
no product S V), and the columns of S V whose eigenvalue in D is zero (at
most 1e-10 of the largest |D|, ``_FACTORED_ZERO_TOL``) are dropped: they
add nothing to A, but whitening can magnify them into terms that later
cancel, losing digits.  With S and M now that reduced S V and D, and r
their rank, C = G M G^T with G = L^-1 S (triangular solves), and with
the economic QR G = Q R, C = Q (R M R^T) Q^T: the nonzero spectrum of C is
that of the r x r matrix R M R^T = U Lambda U^T, and p = L^-T Q u.  The
full spectrum is Lambda plus d - r zeros; lambda_(k+1) for the gap is taken
from that merged descending list, so the gap rule is the same on both
routes.  The route costs at most a d^2 r solve and O(d r^2) where the full
route pays the whitening and a tridiagonal reduction, both O(d^3).

The QR stays in Householder form: LAPACK ``geqrf``, then ``ormqr`` applies
Q to [U_k; 0], so Q is never formed.  On one BLAS thread at k = 9 this took
13.5, 17.2 and 49 us at r = 10 and d = 48, 150 and 750 (the deep epochs and
the rank-c pencils) against 18, 21.5 and 53 us for ``numpy.linalg.qr`` and
Q U_k, and 3.3 against 8.5 ms at r = 250, d = 750.  How the core is
solved depends on r.  Below r = 8 (k + 1) (``_LARGE_RANK_RATIO``) ``eigh``
takes all of R M R^T; from there, as a sample-space factor has, and when
M >= 0, the core is (R D^1/2)(R D^1/2)^T, one syrk, of which ``evr`` takes
only the top k + 1 pairs.  Measured on one BLAS thread at k = 9, ``evr``'s subset
cost more than the full ``eigh`` up to r = 64 and less from r = 100 (2.2
against 4.5 ms at r = 250); at k = 1, 4 and 30 the crossover sat near
r = 8 (k + 1) as well.

The route is taken when

* r < 0.4 d (``scatter.takes_factored_route``, which ``scatter`` also
  asks before it offers a samples factor).  Measured on one BLAS thread at
  k = 9 with three equal constraint blocks, the factored route's time over
  the full route's was, for a dense M >= 0 / a diagonal M,

      r / d           0.1        0.2        0.3        0.4        0.5        0.6
      d = 150    0.15/0.12  0.26/0.19  0.50/0.35  0.61/0.47  1.00/0.67  1.33/0.77
      d = 750    0.10/0.09  0.22/0.17  0.36/0.24  0.58/0.36  0.97/0.49  1.16/0.64

  so the route pays up to r = 0.5 d for a dense M and beyond 0.6 d for a
  diagonal one; 0.4 keeps it at most 0.6 of the full route's time for
  either, which covers a fallback's wasted factored work,
* and k <= r and the k-th factored eigenvalue exceeds 1e-10 of the largest
  |Lambda| (``_FACTORED_ZERO_TOL`` again), so every returned pair has a
  nonzero eigenvalue and none is one of the tied padded zeros, whose
  vectors are arbitrary.

Otherwise the full route runs, reusing the Cholesky factor.

Factor-defined problems.  ``GevdProblem`` takes its objective either as a
d x d array or, with a factor, as a function that forms it.  In the second
form the factor defines the problem: S and M are checked for shape, M for
symmetry (a copy symmetrized when not exact), and the dense objective is
formed only when something reads ``problem.objective`` (the full route,
including its fallback, and criterion checks), through the same checks a
given objective passes, and then kept.  S M S^T is not compared with the
formed objective: ``_checked_factor`` runs only when a caller passes both.
Overflow is ruled out without forming A: T = max_i ||S_i||_1^2 max(max|M|,
1) bounds every entry of |S| |M| |S|^T (so of A and S M S^T however they
are summed) and of a Gram S S^T a sample factor's formula forms on the way,
so with T at most a quarter of the largest double (``_OVERFLOW_FREE``) the
formed objective is finite.  A non-finite factor or a larger T forms the
objective at once and checks it as a given one, so data that overflows the
pencil raises the same ``NumericalError`` ("objective matrix has non-finite
entries") with or without a factor.

Checks.  ``GevdProblem`` reads each side once for both of its checks: one
sweep of row stripes (``_SWEEP_ROWS`` rows, so a stripe and the columns it
is compared with stay in cache) takes max|M| and max|M - M^T| together,
1.0 ms against 2.2 ms for the two separate passes on a 750 x 750 side.

Eigenvalues are returned in descending order and the recovered vectors are
B-orthonormal, P^T B P = I_k.  Signs are fixed deterministically: the
largest-magnitude entry of each column of P is made positive, so repeated
solves of the same problem with this solver agree exactly.  Sign fixing
cannot make a tied eigenspace deterministic: when eigenvalues repeat, any
B-orthonormal basis of their span is a solution, and a different solver (or
the same solver on a perturbed problem, or the other route) may return a
different basis; only the span is comparable there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dpotrf, dsygst

from .scatter import symmetrize, takes_factored_route

# From this many times k + 1, the factor's rank r counts as large: with
# M >= 0 the factored route takes only the core's top k + 1 pairs (module
# docstring).
_LARGE_RANK_RATIO = 8
# An eigenvalue of M or of R M R^T at or below this share of the largest
# magnitude counts as zero.
_FACTORED_ZERO_TOL = 1e-10
# A factor-defined problem whose bound on the objective's terms stays at or
# below this cannot overflow when its objective is formed.
_OVERFLOW_FREE = np.finfo(float).max / 4
# Rows per stripe of the check sweep.  Measured at d = 750: 32 to 128 rows
# take 1.0-1.1 ms, 256 rows 1.2 ms (the stripe's temporary leaves L2).
_SWEEP_ROWS = 64


class NumericalError(RuntimeError):
    """Numerical failure: indefinite constraint or degenerate spectrum."""


# A non-finite side fails its finite check before its asymmetry is read.
@np.errstate(invalid="ignore", over="ignore")
def _sweep(M):
    """(max|M|, max|M - M^T|) in one read of M; the second is None unless M
    is square.

    Stripe i of ``_SWEEP_ROWS`` rows gives its extremes for the scale and is
    compared, from its diagonal rightwards, with the matching columns.  NaN
    propagates through every maximum, so a non-finite entry anywhere makes
    the scale non-finite.
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        return np.abs(M).max(initial=0.0), None
    scales, worst = [0.0], [0.0]
    for i in range(0, M.shape[0], _SWEEP_ROWS):
        rows = M[i:i + _SWEEP_ROWS]
        scales += (rows.max(), -rows.min())
        asymmetry = rows[:, i:] - M[i:, i:i + _SWEEP_ROWS].T
        np.abs(asymmetry, out=asymmetry)
        worst.append(asymmetry.max())
    return np.max(scales), np.max(worst)


def _check_finite(scale, name):
    """Raise unless the largest |entry| ``scale`` of a side is finite."""
    if not np.isfinite(scale):
        raise NumericalError(
            f"{name} matrix has non-finite entries; rescale the data"
        )


def _check_symmetric(worst, name, scale):
    """Raise unless max|M - M^T| = ``worst`` is within 1e-10 of the largest
    entry ``scale``; return whether M is exactly symmetric."""
    if worst > 1e-10 * max(scale, 1.0):
        raise ValueError(f"{name} matrix is not symmetric")
    return worst == 0.0


def _factor_arrays(factor, d):
    """(S, M) as float arrays; raise ValueError unless shaped d x r and r x r."""
    S, M = (np.asarray(x, dtype=float) for x in factor)
    if S.ndim != 2 or S.shape[0] != d or M.shape != (S.shape[1],) * 2:
        raise ValueError("objective factor must be (S, M), S d x r and M r x r")
    return S, M


def _symmetric_factor(M, scale_M, asymmetry):
    """M, or a symmetrized copy unless M is exactly symmetric; ValueError
    beyond the sides' 1e-10."""
    if _check_symmetric(asymmetry, "objective factor M", scale_M):
        return M
    return symmetrize(M.copy())


@np.errstate(over="ignore", invalid="ignore")
def _term_bound(S, scale_M):
    """max_i ||S_i||_1^2 max|M| over the rows S_i of S: it bounds every
    entry of |S| |M| |S|^T, and is non-finite when S or M is."""
    return np.abs(S).sum(axis=1).max(initial=0.0) ** 2 * scale_M


def _checked_factor(factor, A, scale_A):
    """(S, M) as float arrays with M symmetrized; raise ValueError unless both
    are finite, shaped d x r and r x r, and S M S^T matches A.

    "Matches" uses the symmetry check's 1e-10, relative to the largest of
    max|A|, 1 and ``_term_bound``: forming A or S M S^T rounds at the size of
    the terms summed, not of the sum, and a raw view's mean, which a between
    kernel's M annihilates, makes those terms far larger than A.
    """
    S, M = _factor_arrays(factor, A.shape[0])
    if not (np.isfinite(S).all() and np.isfinite(M).all()):
        raise ValueError("objective factor has non-finite entries")
    scale_M, asymmetry = _sweep(M)
    M = _symmetric_factor(M, scale_M, asymmetry)
    terms = _term_bound(S, scale_M)
    # Finite factors can overflow; an overflowed product does not match.
    with np.errstate(over="ignore", invalid="ignore"):
        mismatch = (S @ M) @ S.T
        mismatch -= A
    np.abs(mismatch, out=mismatch)
    if not mismatch.max(initial=0.0) <= 1e-10 * max(scale_A, terms, 1.0):
        raise ValueError("objective factor S M S^T does not match the objective")
    return S, M


def _bounded_factor(factor, d):
    """The (S, M) of a factor-defined problem, M symmetrized as in
    ``_checked_factor``, or None when the factor cannot rule out an
    overflowing objective: ``_term_bound`` with max|M| raised to at least 1
    is non-finite or above ``_OVERFLOW_FREE`` (module docstring)."""
    S, M = _factor_arrays(factor, d)
    scale_M, asymmetry = _sweep(M)
    if not _term_bound(S, np.maximum(scale_M, 1.0)) <= _OVERFLOW_FREE:
        return None
    return S, _symmetric_factor(M, scale_M, asymmetry)


class GevdProblem:
    """A pencil (objective, constraint) with the number of directions to keep.

    Each side must be finite and symmetric to 1e-10 of its largest entry; a
    side that is not exactly symmetric is replaced by (M + M^T) / 2, and an
    exactly symmetric float array is stored as given, not copied.

    ``objective_factor`` is an optional (S, M) with objective = S M S^T, which
    lets ``solve`` work in the rank of S.  Given with a dense objective, it is
    checked against it (``_checked_factor``).  ``objective`` may instead be a
    function of no arguments that forms the dense objective: the problem is
    then defined by its factor, and the objective is formed on its first
    read, through the checks a given one passes, and kept (module
    docstring).
    """

    def __init__(self, objective, constraint, k, objective_factor=None):
        self.k = k
        self._form = None
        factor = objective_factor
        if callable(objective):
            if factor is None:
                raise ValueError("an objective given as a function needs its factor")
            factor = _bounded_factor(factor, np.shape(constraint)[0])
            if factor is None:  # overflow not ruled out: check it as given
                objective, factor = objective(), objective_factor
            else:
                self._form, objective = objective, None
        B = np.asarray(constraint, dtype=float)
        scale_B, asymmetry_B = _sweep(B)
        if objective is not None:
            A = np.asarray(objective, dtype=float)
            scale_A, asymmetry_A = _sweep(A)
            _check_finite(scale_A, "objective")
        _check_finite(scale_B, "constraint")
        if objective is None:
            if asymmetry_B is None:
                raise ValueError("constraint must be a square matrix")
        else:
            if asymmetry_A is None:
                raise ValueError("objective must be a square matrix")
            if B.shape != A.shape:
                raise ValueError("objective and constraint must share a shape")
            A_exact = _check_symmetric(asymmetry_A, "objective", scale_A)
        B_exact = _check_symmetric(asymmetry_B, "constraint", scale_B)
        if not 1 <= k <= B.shape[0]:
            raise ValueError(
                f"k={k} is out of range for problem dimension d={B.shape[0]}"
            )
        # ``symmetrize`` works in place: a caller's side is never written.
        self.constraint = B if B_exact else symmetrize(B.copy())
        self._objective = None
        if objective is not None:
            self._objective = A if A_exact else symmetrize(A.copy())
            if factor is not None:
                factor = _checked_factor(factor, self._objective, scale_A)
        self.objective_factor = factor

    @property
    def objective(self):
        """The dense objective, formed and checked on first read when the
        problem is factor-defined."""
        if self._objective is None:
            A = np.asarray(self._form(), dtype=float)
            scale, asymmetry = _sweep(A)
            _check_finite(scale, "objective")
            if A.shape != self.constraint.shape:
                raise ValueError("objective and constraint must share a shape")
            exact = _check_symmetric(asymmetry, "objective", scale)
            self._objective = A if exact else symmetrize(A.copy())
        return self._objective

    @property
    def dim(self):
        return self.constraint.shape[0]

    def with_constraint(self, constraint):
        """The same objective, formed or not, and factor over ``constraint``."""
        objective = self._objective if self._form is None else self._form
        return GevdProblem(objective, constraint, self.k, self.objective_factor)


@dataclass(frozen=True)
class GevdSolution:
    """Top-k eigenpairs: P is d x k with P^T constraint P = I_k.

    ``route`` names the path that produced them, "full" or "factored".
    """

    P: np.ndarray
    eigenvalues: np.ndarray
    spectrum_gap: float
    route: str


def _fix_signs(P):
    P = P.copy()
    for j in range(P.shape[1]):
        i = int(np.argmax(np.abs(P[:, j])))
        if P[i, j] < 0:
            P[:, j] = -P[:, j]
    return P


def _diagonal_blocks(B):
    """The finest split of symmetric B into diagonal blocks with exactly zero
    entries off them, as row slices (module docstring).

    Each candidate p (B[p, p-1] == 0) is checked against the columns before
    it, rows p up to the next candidate; a nonzero entry in column j joins
    the candidate to the block holding j and every block after it.
    """
    d = B.shape[0]
    cuts = [int(p) for p in np.flatnonzero(np.diagonal(B, -1) == 0) + 1]
    starts = [0]
    for p, end in zip(cuts, cuts[1:] + [d]):
        coupled = B[p:end, :p].any(axis=0)
        if coupled.any():
            first = int(np.argmax(coupled))
            while starts[-1] > first:
                starts.pop()
        else:
            starts.append(p)
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [d])]


def _cholesky(B):
    """B = L L^T with L = blockdiag(L_s) over B's diagonal blocks, as a list
    of (rows, L_s)."""
    factors = []
    for rows in _diagonal_blocks(B):
        L, info = dpotrf(B[rows, rows], lower=1)
        if info != 0:
            raise NumericalError(
                "constraint matrix is not positive definite; increase the "
                "tikhonov gamma"
            )
        factors.append((rows, L))
    return factors


def _lower_solve(factors, Z, trans=0, order="C"):
    """L^-1 Z, or L^-T Z with ``trans`` 1, one block of rows at a time, into
    a fresh array of this memory ``order``.

    BLAS ``trsm`` directly: on a 16 x 16 block of a deep epoch,
    ``solve_triangular`` took 20 us where ``trsm`` takes 2.6 us."""
    out = np.empty(Z.shape, order=order)
    for rows, L in factors:
        out[rows] = dtrsm(1.0, L, Z[rows], lower=1, trans_a=trans)
    return out


def _whitened(A, factors):
    """C = L^-1 A L^-T in the lower triangle of a Fortran array."""
    if len(factors) == 1:
        C, info = dsygst(A, factors[0][1], itype=1, lower=1)
        if info != 0:
            raise NumericalError(f"LAPACK dsygst failed with info={info}")
        return C
    # Block row s first becomes L_s^-1 A[s, :s], then each block column t
    # from the diagonal down is multiplied by L_t^-T.  The upper triangle
    # stays zero.
    C = np.zeros(A.shape, order="F")
    for rows, L in factors:
        C[rows, :rows.stop] = dtrsm(1.0, L, A[rows, :rows.stop], lower=1)
    for rows, L in factors:
        C[rows.start:, rows] = dtrsm(
            1.0, L, C[rows.start:, rows], side=1, lower=1, trans_a=1
        )
    return C


def _solution(factors, U, eigvals, next_eigval, route):
    """Back-transform the top-k whitened vectors U into a solution."""
    k = U.shape[1]
    return GevdSolution(
        P=_fix_signs(_lower_solve(factors, U, trans=1)),
        eigenvalues=eigvals[:k].copy(),
        spectrum_gap=float(eigvals[k - 1] - next_eigval),
        route=route,
    )


def _solve_full(problem, factors):
    d, k = problem.dim, problem.k
    # Only the lower triangle of C holds C; the eigensolver reads that one.
    C = _whitened(problem.objective, factors)
    m = min(k + 1, d)
    eigvals, U = eigh(
        C, lower=True, subset_by_index=[d - m, d - 1], driver="evr", overwrite_a=True
    )
    eigvals = eigvals[::-1]
    U = U[:, ::-1]
    next_eigval = eigvals[k] if k < d else eigvals[k - 1]  # gap 0 when k = d
    return _solution(factors, U[:, :k], eigvals, next_eigval, "full")


def _householder_qr(G):
    """LAPACK ``geqrf`` of G in place: (R and the reflectors below it, tau)."""
    qr, tau, _, info = dgeqrf(G, lwork=dgeqrf_lwork(*G.shape)[0], overwrite_a=1)
    if info != 0:
        raise NumericalError(f"LAPACK dgeqrf failed with info={info}")
    return qr, tau


def _times_q(qr, tau, U):
    """Q [U; 0] for the Q of ``_householder_qr``, by LAPACK ``ormqr``."""
    C = np.zeros((qr.shape[0], U.shape[1]), order="F")
    C[:U.shape[0]] = U
    lwork = int(dormqr("L", "N", qr, tau, C, -1)[1][0])
    QU, _, info = dormqr("L", "N", qr, tau, C, lwork, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"LAPACK dormqr failed with info={info}")
    return QU


def _solve_factored(problem, factors):
    """The factored route, or None when the top k reach the padded zeros."""
    S, M = problem.objective_factor
    k = problem.k
    # Drop M's null space before whitening: L^-1 can blow a column of S that
    # M annihilates (the data mean, which a centred constraint holds only at
    # the ridge's scale) up into one that R M R^T must then cancel.  A
    # diagonal M is its own eigendecomposition, with V = I.
    diagonal = np.count_nonzero(M) == np.count_nonzero(np.diagonal(M))
    D, V = (np.diagonal(M), None) if diagonal else np.linalg.eigh(M)
    nonzero = np.abs(D) > _FACTORED_ZERO_TOL * np.abs(D).max(initial=0.0)
    D = D[nonzero]
    r = D.size
    if k > r:
        return None
    if V is not None:
        S = S @ V[:, nonzero]
    elif r < S.shape[1]:
        S = S[:, nonzero]
    qr, tau = _householder_qr(_lower_solve(factors, S, order="F"))
    R = np.triu(qr[:r])
    if r < _LARGE_RANK_RATIO * (k + 1) or D.min() < 0:
        eigvals, U = np.linalg.eigh(symmetrize((R * D) @ R.T))
    else:
        R *= np.sqrt(D)
        eigvals, U = eigh(R @ R.T, lower=True, overwrite_a=True, driver="evr",
                          subset_by_index=[r - k - 1, r - 1])
    eigvals = eigvals[::-1]
    U = U[:, ::-1]
    if not eigvals[k - 1] > _FACTORED_ZERO_TOL * np.abs(eigvals).max():
        return None
    # The d - r padded zeros sort between Lambda's positive and negative part.
    next_eigval = max(eigvals[k], 0.0) if k < r else 0.0
    return _solution(factors, _times_q(qr, tau, U[:, :k]), eigvals, next_eigval,
                     "factored")


def solve(problem):
    """Solve the pencil and return the top-k B-orthonormal eigenvectors."""
    factors = _cholesky(problem.constraint)
    factor = problem.objective_factor
    if factor is not None and takes_factored_route(factor[0].shape[1], problem.dim):
        solution = _solve_factored(problem, factors)
        if solution is not None:
            return solution
    return _solve_full(problem, factors)
