"""Symmetric-definite generalized eigenvalue problems.

The solver reduces  A p = lambda B p  (A symmetric, B symmetric positive
definite) to an ordinary symmetric eigenproblem by Cholesky whitening:

    B = L L^T,   C = L^-1 A L^-T,   C u = lambda u,   p = L^-T u.

LAPACK ``potrf`` factors B and ``sygst`` forms the lower triangle of C in
place; only the k + 1 largest eigenpairs of C are computed (the k returned
and one more for the spectrum gap), since k is usually far below d.

Eigenvalues are returned in descending order and the recovered vectors are
B-orthonormal, P^T B P = I_k.  Signs are fixed deterministically: the
largest-magnitude entry of each column of P is made positive, so repeated
solves of the same problem with this solver agree exactly.  Sign fixing
cannot make a tied eigenspace deterministic: when eigenvalues repeat, any
B-orthonormal basis of their span is a solution, and a different solver (or
the same solver on a perturbed problem) may return a different basis; only
the span is comparable there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, solve_triangular
from scipy.linalg.lapack import dpotrf, dsygst

from .scatter import symmetrize


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


@dataclass(frozen=True)
class GevdProblem:
    """A pencil (objective, constraint) with the number of directions to keep.

    Each side must be finite and symmetric to 1e-10 of its largest entry; a
    side that is not exactly symmetric is replaced by (M + M^T) / 2, and an
    exactly symmetric float array is stored as given, not copied.
    """

    objective: np.ndarray
    constraint: np.ndarray
    k: int

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
        object.__setattr__(self, "objective", A if A_exact else symmetrize(A))
        object.__setattr__(self, "constraint", B if B_exact else symmetrize(B))

    @property
    def dim(self):
        return self.objective.shape[0]


@dataclass(frozen=True)
class GevdSolution:
    """Top-k eigenpairs: P is d x k with P^T constraint P = I_k."""

    P: np.ndarray
    eigenvalues: np.ndarray
    spectrum_gap: float


def _fix_signs(P):
    P = P.copy()
    for j in range(P.shape[1]):
        i = int(np.argmax(np.abs(P[:, j])))
        if P[i, j] < 0:
            P[:, j] = -P[:, j]
    return P


def solve(problem):
    """Solve the pencil and return the top-k B-orthonormal eigenvectors."""
    d = problem.dim
    k = problem.k
    L, info = dpotrf(problem.constraint, lower=1)
    if info != 0:
        raise NumericalError(
            "constraint matrix is not positive definite; increase the "
            "tikhonov gamma"
        )
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
    gap = float(eigvals[k - 1] - eigvals[k]) if k < d else 0.0
    P = solve_triangular(L, U[:, :k], lower=True, trans="T")
    P = _fix_signs(P)
    return GevdSolution(P=P, eigenvalues=eigvals[:k].copy(), spectrum_gap=gap)


def objective_value(solution):
    """Sum of the retained eigenvalues, the optimum of the trace objective."""
    return float(solution.eigenvalues.sum())
