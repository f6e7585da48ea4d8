"""Symmetric-definite generalized eigenvalue problems.

The solver reduces  A p = lambda B p  (A symmetric, B symmetric positive
definite) to an ordinary symmetric eigenproblem by Cholesky whitening,
B = L L^T, C = L^-1 A L^-T, C u = lambda u, p = L^-T u.  LAPACK ``potrf``
factors B, and one of two routes finds the top eigenpairs of C.

Full route.  ``sygst`` forms the lower triangle of C in place and only the
k + 1 largest eigenpairs of C are computed (the k returned and one more for
the spectrum gap), since k is usually far below d.

Factored route.  A problem may carry an objective factor (S, M) with
A = S M S^T, S d x r and M r x r symmetric (not necessarily semidefinite).
First M = V D V^T, and the columns of S V whose eigenvalue in D is zero
(at most 1e-10 of the largest |D|, ``_FACTORED_ZERO_TOL``) are dropped:
they add nothing to A, but whitening can magnify them into terms that later
cancel, losing digits.  With S and M now that reduced S V and D, and r
their rank, C = G M G^T with G = L^-1 S (one triangular solve), and with
the economic QR G = Q R, C = Q (R M R^T) Q^T: the nonzero spectrum of C is
that of the r x r matrix R M R^T = U Lambda U^T, and p = L^-T Q u.  The
full spectrum is Lambda plus d - r zeros; lambda_(k+1) for the gap is taken
from that merged descending list, so the gap rule is the same on both
routes.  The route costs a d^2 r solve and O(d r^2) where the full route
pays ``sygst`` and a tridiagonal reduction, both O(d^3).  It is taken when

* r < d / 3 (``_FACTORED_RANK_RATIO``).  Measured on one BLAS thread with
  the factor check included and k = 9, the factored route took 0.25-0.8 of
  the full route's time up to r = 0.35 d at d = 750 and up to r = 0.45 d at
  d = 48 and 150, and more than the full route from r = 0.45 d at d = 750
  and r = 0.6 d at d = 150 (its r x r eigensolve and QR grow as r^3 and
  d r^2),
* and k <= r and the k-th factored eigenvalue exceeds 1e-10 of the largest
  |Lambda| (``_FACTORED_ZERO_TOL`` again), so every returned pair has a
  nonzero eigenvalue and none is one of the tied padded zeros, whose
  vectors are arbitrary.

Otherwise the full route runs, reusing the Cholesky factor.

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
from scipy.linalg import eigh, solve_triangular
from scipy.linalg.lapack import dpotrf, dsygst

from .scatter import symmetrize

# The factored route runs while the factor's rank r is below this share of d.
_FACTORED_RANK_RATIO = 1.0 / 3.0
# An eigenvalue of M or of R M R^T at or below this share of the largest
# magnitude counts as zero.
_FACTORED_ZERO_TOL = 1e-10


class NumericalError(RuntimeError):
    """Numerical failure: indefinite constraint or degenerate spectrum."""


def _finite_scale(M, name):
    """The largest |entry| of M.  NaN propagates through max, so this one
    pass also finds every non-finite entry."""
    scale = np.abs(M).max(initial=0.0)
    if not np.isfinite(scale):
        raise NumericalError(
            f"{name} matrix has non-finite entries; rescale the data"
        )
    return scale


def _check_symmetric(M, name, scale):
    """Raise unless M is symmetric to 1e-10 of its largest entry ``scale``;
    return whether it is exactly symmetric."""
    asymmetry = M - M.T
    np.abs(asymmetry, out=asymmetry)
    worst = asymmetry.max()
    if worst > 1e-10 * max(scale, 1.0):
        raise ValueError(f"{name} matrix is not symmetric")
    return worst == 0.0


def _checked_factor(factor, A, scale_A):
    """(S, M) as float arrays with M symmetrized; raise ValueError unless both
    are finite, shaped d x r and r x r, and S M S^T matches A.

    "Matches" uses the symmetry check's 1e-10, relative to the largest of
    max|A|, 1 and max_i ||S_i||_1^2 max|M| (S_i the rows of S), which bounds
    every |S| |M| |S|^T entry: forming A or S M S^T rounds at the size of
    the terms summed, not of the sum, and a raw view's mean, which a between
    kernel's M annihilates, makes those terms far larger than A.
    """
    S, M = (np.asarray(x, dtype=float) for x in factor)
    if S.ndim != 2 or S.shape[0] != A.shape[0] or M.shape != (S.shape[1],) * 2:
        raise ValueError("objective factor must be (S, M), S d x r and M r x r")
    if not (np.isfinite(S).all() and np.isfinite(M).all()):
        raise ValueError("objective factor has non-finite entries")
    scale_M = np.abs(M).max(initial=0.0)
    if not _check_symmetric(M, "objective factor M", scale_M):
        M = symmetrize(M)
    # Finite factors can overflow; an overflowed product does not match.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(S).sum(axis=1).max(initial=0.0) ** 2 * scale_M
        mismatch = (S @ M) @ S.T
        mismatch -= A
    np.abs(mismatch, out=mismatch)
    if not mismatch.max(initial=0.0) <= 1e-10 * max(scale_A, terms, 1.0):
        raise ValueError("objective factor S M S^T does not match the objective")
    return S, M


@dataclass(frozen=True)
class GevdProblem:
    """A pencil (objective, constraint) with the number of directions to keep.

    Each side must be finite and symmetric to 1e-10 of its largest entry; a
    side that is not exactly symmetric is replaced by (M + M^T) / 2, and an
    exactly symmetric float array is stored as given, not copied.

    ``objective_factor`` is an optional (S, M) with objective = S M S^T, which
    lets ``solve`` work in the rank of S; it is checked against the dense
    objective, which stays the problem's definition.
    """

    objective: np.ndarray
    constraint: np.ndarray
    k: int
    objective_factor: tuple | None = None

    def __post_init__(self):
        A = np.asarray(self.objective, dtype=float)
        B = np.asarray(self.constraint, dtype=float)
        scale_A = _finite_scale(A, "objective")
        scale_B = _finite_scale(B, "constraint")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("objective must be a square matrix")
        if B.shape != A.shape:
            raise ValueError("objective and constraint must share a shape")
        A_exact = _check_symmetric(A, "objective", scale_A)
        B_exact = _check_symmetric(B, "constraint", scale_B)
        if not 1 <= self.k <= A.shape[0]:
            raise ValueError(
                f"k={self.k} is out of range for problem dimension d={A.shape[0]}"
            )
        # Symmetrizing an exactly symmetric side returns the same values.
        A = A if A_exact else symmetrize(A)
        object.__setattr__(self, "objective", A)
        object.__setattr__(self, "constraint", B if B_exact else symmetrize(B))
        if self.objective_factor is not None:
            factor = _checked_factor(self.objective_factor, A, scale_A)
            object.__setattr__(self, "objective_factor", factor)

    @property
    def dim(self):
        return self.objective.shape[0]


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


def _solution(L, U, eigvals, next_eigval, route):
    """Back-transform the top-k whitened vectors U into a solution."""
    k = U.shape[1]
    P = solve_triangular(L, U, lower=True, trans="T")
    return GevdSolution(
        P=_fix_signs(P),
        eigenvalues=eigvals[:k].copy(),
        spectrum_gap=float(eigvals[k - 1] - next_eigval),
        route=route,
    )


def _solve_full(problem, L):
    d, k = problem.dim, problem.k
    # sygst writes C = L^-1 A L^-T into the lower triangle only; the upper
    # triangle keeps A's entries, so the eigensolver reads the lower one.
    C, info = dsygst(problem.objective, L, itype=1, lower=1)
    if info != 0:
        raise NumericalError(f"LAPACK dsygst failed with info={info}")
    m = min(k + 1, d)
    eigvals, U = eigh(
        C, lower=True, subset_by_index=[d - m, d - 1], driver="evr", overwrite_a=True
    )
    eigvals = eigvals[::-1]
    U = U[:, ::-1]
    next_eigval = eigvals[k] if k < d else eigvals[k - 1]  # gap 0 when k = d
    return _solution(L, U[:, :k], eigvals, next_eigval, "full")


def _solve_factored(problem, L):
    """The factored route, or None when the top k reach the padded zeros."""
    S, M = problem.objective_factor
    k = problem.k
    # Drop M's null space before whitening: L^-1 can blow a column of S that
    # M annihilates (the data mean, which a centred constraint holds only at
    # the ridge's scale) up into one that R M R^T must then cancel.
    D, V = np.linalg.eigh(M)
    nonzero = np.abs(D) > _FACTORED_ZERO_TOL * np.abs(D).max(initial=0.0)
    r = int(nonzero.sum())
    if k > r:
        return None
    Q, R = np.linalg.qr(solve_triangular(L, S @ V[:, nonzero], lower=True))
    eigvals, U = np.linalg.eigh(symmetrize((R * D[nonzero]) @ R.T))
    eigvals = eigvals[::-1]
    U = U[:, ::-1]
    if not eigvals[k - 1] > _FACTORED_ZERO_TOL * np.abs(eigvals).max():
        return None
    # The d - r padded zeros sort between Lambda's positive and negative part.
    next_eigval = max(eigvals[k], 0.0) if k < r else 0.0
    return _solution(L, Q @ U[:, :k], eigvals, next_eigval, "factored")


def solve(problem):
    """Solve the pencil and return the top-k B-orthonormal eigenvectors."""
    L, info = dpotrf(problem.constraint, lower=1)
    if info != 0:
        raise NumericalError(
            "constraint matrix is not positive definite; increase the "
            "tikhonov gamma"
        )
    factor = problem.objective_factor
    if factor is not None and factor[0].shape[1] < _FACTORED_RANK_RATIO * problem.dim:
        solution = _solve_factored(problem, L)
        if solution is not None:
            return solution
    return _solve_full(problem, L)


def objective_value(solution):
    """Sum of the retained eigenvalues, the optimum of the trace objective."""
    return float(solution.eigenvalues.sum())
