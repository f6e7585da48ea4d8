"""Symmetric-definite generalized eigenvalue problems.

The solver reduces  A p = lambda B p  (A symmetric, B symmetric positive
definite) to an ordinary symmetric eigenproblem by Cholesky whitening,
B = L L^T, C = L^-1 A L^-T, C u = lambda u, p = L^-T u, and one of two
routes finds the top eigenpairs of C.

Block-diagonal constraints.  Most pencils of the package have the
constraint blockdiag(X_s K X_s^T) + gamma I, one block per view, and
``framework.pencil`` hands it over as that list of blocks: ``GevdProblem``
checks each block as it would the whole side, LAPACK ``potrf`` factors each,
and the d x d constraint is formed only when something reads
``problem.constraint``, on each read and without keeping it: a problem
holds only what it solves from.  A constraint given as one array, as from outside
the package or with dense terms, is split into the finest diagonal blocks
found from the array itself: a block boundary is a row p with B[p:, :p]
exactly zero (B is symmetric, so the lower triangle decides).  Only rows
whose subdiagonal entry B[p, p-1] is zero are candidates, so a dense B costs
one read of its subdiagonal, and a block-diagonal one a read of its lower
off-block part.  Any nonzero entry, however small, joins the blocks it
couples.  Either way L = blockdiag(L_s) is kept as its blocks: every product
with L^-1 or L^-T is one triangular solve per block, d_s^2 where a full L
costs d^2.  At 3 x 250 dims the three block factorizations took 1.1 ms
against 8.9 ms for one d = 750 ``potrf`` (one BLAS thread).  A block that is
not positive definite fails as a whole B would.

Block constraints with a low-rank term.  MvDA's and MvDA_CCA's constraint
is blockdiag(X_s H X_s^T) + gamma I + n U (I - 1 1^T / v) U^T with
U = blockdiag(mu_s), and ``framework.pencil`` hands it over as a
``scatter.LowRankBlocks``: the blocks and the d x (v - 1) factor
Z = sqrt(n) U Q of the semidefinite mean term, Q an orthonormal basis of
1-perp.  ``_Whitening`` factors the blocks, L_0 = blockdiag(L_s), and takes
V = L_0^-1 Z with its thin SVD V = W Sigma R^T.  Then
N = (I + V V^T)^-1/2 = I + W diag(h) W^T with h = (1 + sigma^2)^-1/2 - 1,
and B = L L^T for L = L_0 N^-1, so every route keeps its one solve path:
the full route folds C = N C_0 N into the lower triangle of
C_0 = L_0^-1 A L_0^-T (one ``symm`` and one ``syr2k``), the factored route
takes G = N L_0^-1 S, and both back-transform by P = L_0^-T N U.  No Cholesky
factor is updated and no d x d factorization runs.  At 3 x 250 dims, n = 250,
10 classes and k = 9 (one BLAS thread, best of 7) a wide MvDA_CCA fit took
49.5-49.9 ms against 73.1-75.0 ms with its constraint as one array: the
block factors and the fold took 1.3-1.7 ms and 2.3 ms where the dense
``potrf`` took about 5 ms, and the objective is whitened from the samples
(below).  MvDA's fit took 8.4 ms against 16.7-18.2 ms, next to MvOPLS's
5.4 ms.  The mean term is never added to the blocks, where it would be
rounded at its own size: with views offset by 1e6 (3 x 40 dims, n = 30),
n mu_s mu_s^T is about 1e15, and the one-array constraint loses gamma = 1e-4
to rounding and is no longer positive definite, while the split keeps the
eigenvalues and P^T B P - I within 1.8e-15 of a long-double oracle.  A V
that is not finite fails as an indefinite block would, and a Z whose
``_term_bound`` cannot rule out an overflowing Z Z^T is assembled with its
blocks and checked as one array.

Full route.  C is formed in its lower triangle and only the k + 1 largest
eigenpairs of C are computed (the k returned and one more for the spectrum
gap), since k is usually far below d.  With one block ``sygst`` forms C in
place.  With several, block (s, t), t <= s, of C is L_s^-1 A_st L_t^-T: one
triangular solve per block row and one per block column, (v + 1) d^3 / v^2
flops for v equal blocks against ``sygst``'s d^3.  Measured on one BLAS
thread with three equal blocks: 15.1 against 18.5 ms at d = 750, 0.37
against 0.53 ms at d = 150, the two agreeing to 1e-15 of max|C|.

Whitening from the samples.  A problem defined by a
``scatter.SampleObjective`` (``problem.objective_samples``), whose view
blocks are the constraint's, never forms its objective on the full route.
Block (s, t) of A is e_st X_w,s X_w,t^T + F_s M_st F_t^T, so with
T_s = L_s^-1 X_w,s and Phi_s = L_s^-1 F_s (one triangular solve per view)
block (s, t), t <= s, of C is e_st T_s T_t^T + Phi_s M_st Phi_t^T, and the
T_s T_s^T of a diagonal block is skipped where its e cancels (MLDA and
GMA); with a low-rank constraint term (MvDA_CCA) the result is folded as
above.  ``scatter`` offers such an objective only where n <= d
(``scatter.whitens_samples``, measured there).  At 3 x 250 dims and
n = 250 this took 5.5 ms against 11.8 ms for whitening the formed
objective, which the fit no longer forms, nor the whole Gram it reads.
It is also the more accurate: the formed objective rounds X_s X_t^T at
eps |X_s| |X_t|, and L^-1 ... L^-T magnifies that rounding along the
constraint's eigenvalues near gamma, while the samples are whitened before
any product, so T_s T_t^T rounds at the size of the whitened terms.  On MLDA at 3 x 40 dims and n = 30, against a long-double
whitening, C from the samples was off by 1.4e-13 of max|C| and C from the
formed objective by 3.0e-10 (MvDA_CCA, folded: 1.8e-13 against 2.9e-10,
and 2.3e-13 against 4.3e-10 with the views offset by 1e6); the top
eigenvalues agree to 1e-14.  Overflow
is ruled out as for a factor: max_i (||X_w,i||_1 + ||F_i||_1)^2 times the
terms' coefficient scale (``SampleObjective.term_bound``) at most a quarter
of the largest double, or the objective is formed and checked at once.

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
d x d array or, with a factor or as a ``scatter.SampleObjective``, as a
function that forms it.  In the second
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
from scipy.linalg.blas import dgemm, dsymm, dsyr2k, dtrsm
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dormqr, dpotrf, dsygst

from .scatter import LowRankBlocks, SampleObjective, symmetrize, takes_factored_route

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


_NOT_POSITIVE_DEFINITE = (
    "constraint matrix is not positive definite; increase the tikhonov gamma"
)


class NumericalError(RuntimeError):
    """Numerical failure: indefinite constraint or degenerate spectrum."""


# A non-finite side fails its finite check before its asymmetry is read.
@np.errstate(invalid="ignore", over="ignore")
def _sweep(*sides):
    """(max|M|, max|M - M^T|) over the arrays M given, in one read of each;
    the second is None unless every M is square.

    Stripe i of ``_SWEEP_ROWS`` rows gives its extremes for the scale and is
    compared, from its diagonal rightwards, with the matching columns.  NaN
    propagates through every maximum, so a non-finite entry anywhere makes
    the scale non-finite.  The diagonal blocks of a constraint are swept in
    one call: a 16 x 16 block is one stripe, and the call's own overhead
    would otherwise come once per block.
    """
    scales, worst = [0.0], [0.0]
    for M in sides:
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            scales.append(np.abs(M).max(initial=0.0))
            worst = None
            continue
        for i in range(0, M.shape[0], _SWEEP_ROWS):
            rows = M[i:i + _SWEEP_ROWS]
            scales += (rows.max(), -rows.min())
            asymmetry = rows[:, i:] - M[i:, i:i + _SWEEP_ROWS].T
            np.abs(asymmetry, out=asymmetry)
            if worst is not None:
                worst.append(asymmetry.max())
    return np.max(scales), None if worst is None else np.max(worst)


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


def _assembled(blocks, Z=None):
    """blockdiag(blocks) + Z Z^T as one exactly symmetric d x d array."""
    d = sum(len(block) for block in blocks)
    B, start = np.zeros((d, d)), 0
    for block in blocks:
        B[start:start + len(block), start:start + len(block)] = block
        start += len(block)
    if Z is None:
        return B
    # gemm adds Z Z^T into B through its Fortran-ordered transpose, in
    # place.  Finite factors can overflow; the finite check reports it.
    dgemm(1.0, Z, Z, trans_b=1, beta=1.0, c=B.T, overwrite_c=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return symmetrize(B)


def _constraint_sweep(constraint):
    """(B, blocks, Z, max|B|, max|B - B^T|, d) of a constraint given as one
    array (B; blocks and Z None), as the list of its diagonal blocks (B and Z
    None) or as a ``scatter.LowRankBlocks`` (B None).  A low-rank factor Z
    whose ``_term_bound`` cannot rule out an overflowing Z Z^T is assembled
    with its blocks into B, as a given array.  The asymmetry is None unless
    every array is square."""
    Z = None
    if isinstance(constraint, LowRankBlocks):
        blocks = [np.asarray(B, dtype=float) for B in constraint.blocks]
        Z = np.asarray(constraint.Z, dtype=float)
        if Z.ndim != 2 or len(Z) != sum(len(B) for B in blocks):
            raise ValueError("constraint low-rank factor must be d x m")
        constraint = blocks
        if not _term_bound(Z, 1.0) <= _OVERFLOW_FREE:
            constraint, Z = _assembled(blocks, Z), None
    if not isinstance(constraint, list):
        B = np.asarray(constraint, dtype=float)
        return (B, None, None, *_sweep(B), B.shape[0] if B.ndim else 0)
    blocks = [np.asarray(B, dtype=float) for B in constraint]
    return (None, blocks, Z, *_sweep(*blocks), sum(len(B) for B in blocks))


class GevdProblem:
    """A pencil (objective, constraint) with the number of directions to keep.

    Each side must be finite and symmetric to 1e-10 of its largest entry; a
    side that is not exactly symmetric is replaced by (M + M^T) / 2, and an
    exactly symmetric float array is stored as given, not copied.

    ``constraint`` is a d x d array, the list of its diagonal blocks, the
    entries off them zero, or a ``scatter.LowRankBlocks``, those blocks plus
    Z Z^T; blocks are checked as the array would be, and ``constraint``
    forms that array on each read without keeping it (module docstring).

    ``objective_factor`` is an optional (S, M) with objective = S M S^T, which
    lets ``solve`` work in the rank of S.  Given with a dense objective, it is
    checked against it (``_checked_factor``).  ``objective`` may instead be a
    function of no arguments that forms the dense objective: the problem is
    then defined by its factor, or by the samples of a
    ``scatter.SampleObjective``, and the objective is formed on its first
    read, through the checks a given one passes, and kept (module
    docstring).
    """

    def __init__(self, objective, constraint, k, objective_factor=None):
        self.k = k
        self._form = None
        self.objective_samples = None
        factor = objective_factor
        B, blocks, low_rank, scale_B, asymmetry_B, d = _constraint_sweep(constraint)
        if isinstance(objective, SampleObjective) and factor is None:
            if objective.term_bound() <= _OVERFLOW_FREE:
                self._form = self.objective_samples = objective
                objective = None
            else:  # overflow not ruled out: check it as given
                objective = objective()
        elif callable(objective):
            if factor is None:
                raise ValueError("an objective given as a function needs its factor")
            factor = _bounded_factor(factor, d)
            if factor is None:  # overflow not ruled out: check it as given
                objective, factor = objective(), objective_factor
            else:
                self._form, objective = objective, None
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
            if asymmetry_B is None or A.shape != (d, d):
                raise ValueError("objective and constraint must share a shape")
            A_exact = _check_symmetric(asymmetry_A, "objective", scale_A)
        B_exact = _check_symmetric(asymmetry_B, "constraint", scale_B)
        if not 1 <= k <= d:
            raise ValueError(f"k={k} is out of range for problem dimension d={d}")
        self.dim = d
        # ``symmetrize`` works in place: a caller's side is never written.
        self.constraint_low_rank = low_rank
        if blocks is None:
            self._constraint = B if B_exact else symmetrize(B.copy())
            self.constraint_blocks = None
        else:
            self._constraint = None
            if not B_exact:
                blocks = [symmetrize(block.copy()) for block in blocks]
            self.constraint_blocks, start = [], 0
            for block in blocks:
                self.constraint_blocks.append((slice(start, start + len(block)), block))
                start += len(block)
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
            if A.shape != (self.dim, self.dim):
                raise ValueError("objective and constraint must share a shape")
            exact = _check_symmetric(asymmetry, "objective", scale)
            self._objective = A if exact else symmetrize(A.copy())
        return self._objective

    @property
    def constraint(self):
        """The dense constraint; given as blocks, it is formed from them and
        its low-rank factor on each read and not kept, since the solve
        reads only the blocks."""
        if self._constraint is None:
            return _assembled([block for _, block in self.constraint_blocks],
                              self.constraint_low_rank)
        return self._constraint

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


def _constraint_blocks(problem):
    """The constraint's diagonal blocks as (rows, B_s): as given, or found
    from the exact zeros of a dense constraint (``_diagonal_blocks``)."""
    if problem.constraint_blocks is not None:
        return problem.constraint_blocks
    B = problem.constraint
    return [(rows, B[rows, rows]) for rows in _diagonal_blocks(B)]


def _cholesky(blocks):
    """B = L L^T with L = blockdiag(L_s) over the blocks (rows, B_s), as a
    list of (rows, L_s)."""
    factors = []
    for rows, B in blocks:
        L, info = dpotrf(B, lower=1)
        if info != 0:
            raise NumericalError(_NOT_POSITIVE_DEFINITE)
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


class _Whitening:
    """B = L L^T for a constraint of diagonal blocks B_s plus Z Z^T, applied
    as L^-1 and L^-T (module docstring).

    ``factors`` is L_0 = blockdiag(L_s) as (rows, L_s).  With Z, V = L_0^-1 Z
    has the thin SVD W Sigma R^T, N = (I + V V^T)^-1/2 = I + W diag(h) W^T
    with h = (1 + sigma^2)^-1/2 - 1, and L = L_0 N^-1, so L^-1 = N L_0^-1 and
    L^-T = L_0^-T N; without Z, W is None and L = L_0.
    """

    def __init__(self, blocks, Z=None):
        self.factors = _cholesky(blocks)
        self.W = self.h = None
        if Z is not None:
            V = _lower_solve(self.factors, Z)
            if not np.isfinite(V).all():
                raise NumericalError(_NOT_POSITIVE_DEFINITE)
            self.W, sigma, _ = np.linalg.svd(V, full_matrices=False)
            # (1 + s^2)^-1/2 - 1 = -s^2 / (r (1 + r)), r = hypot(1, s): no
            # cancellation for small s, no overflow for large s.
            r = np.hypot(1.0, sigma)
            self.h = -(sigma / r) * (sigma / (1.0 + r))

    def _times_n(self, Z):
        """N Z, written into Z."""
        if self.W is not None:
            Z += self.W @ (self.h[:, None] * (self.W.T @ Z))
        return Z

    def solve(self, Z, order="C"):
        """L^-1 Z into a fresh array of this memory ``order``."""
        return self._times_n(_lower_solve(self.factors, Z, order=order))

    def solve_transposed(self, U):
        """L^-T U."""
        return _lower_solve(self.factors, self._times_n(np.array(U)), trans=1)

    def fold(self, C):
        """N C N for C = L_0^-1 A L_0^-T in the lower triangle of a Fortran
        array, written into that triangle: with Y = C W (one ``symm``),
        N C N = C + W X^T + X W^T for X = Y diag(h) + W G / 2 and
        G = diag(h) W^T Y diag(h), one ``syr2k``."""
        if self.W is None:
            return C
        W, h = self.W, self.h
        Y = dsymm(1.0, C, W, lower=1)
        X = Y * h + W @ (0.5 * np.outer(h, h) * (W.T @ Y))
        return dsyr2k(1.0, W, X, beta=1.0, c=C, lower=1, overwrite_c=1)


def _whitened(A, whitening):
    """C = L^-1 A L^-T in the lower triangle of a Fortran array."""
    factors = whitening.factors
    if len(factors) == 1:
        C, info = dsygst(A, factors[0][1], itype=1, lower=1)
        if info != 0:
            raise NumericalError(f"LAPACK dsygst failed with info={info}")
        return whitening.fold(C)
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
    return whitening.fold(C)


def _whitened_samples(objective, whitening):
    """C = L^-1 A L^-T in the lower triangle of a Fortran array, block by
    block from the samples of a ``scatter.SampleObjective`` whose view blocks
    are the factors' (module docstring)."""
    factors = whitening.factors
    d = objective.X_w.shape[0]
    T = [dtrsm(1.0, L, objective.X_w[rows], lower=1) for rows, L in factors]
    Phi = [dtrsm(1.0, L, objective.F[rows], lower=1) for rows, L in factors]
    C = np.zeros((d, d), order="F")
    for s, (rows, _) in enumerate(factors):
        for t, (cols, _) in enumerate(factors[:s + 1]):
            eye, Mt = objective.diagonal if s == t else objective.off_diagonal
            m = len(Mt)
            block = (Phi[s][:, :m] @ Mt) @ Phi[t][:, :m].T
            if eye:
                block = dgemm(eye, T[s], T[t], trans_b=1, beta=1.0, c=block,
                              overwrite_c=1)
            C[rows, cols] = block
    return whitening.fold(C)


def _solution(whitening, U, eigvals, next_eigval, route):
    """Back-transform the top-k whitened vectors U into a solution."""
    k = U.shape[1]
    return GevdSolution(
        P=_fix_signs(whitening.solve_transposed(U)),
        eigenvalues=eigvals[:k].copy(),
        spectrum_gap=float(eigvals[k - 1] - next_eigval),
        route=route,
    )


def _solve_full(problem, whitening):
    d, k = problem.dim, problem.k
    # Only the lower triangle of C holds C; the eigensolver reads that one.
    samples = problem.objective_samples
    if (samples is not None
            and [rows for rows, _ in whitening.factors] == samples.blocks):
        C = _whitened_samples(samples, whitening)
    else:
        C = _whitened(problem.objective, whitening)
    m = min(k + 1, d)
    eigvals, U = eigh(
        C, lower=True, subset_by_index=[d - m, d - 1], driver="evr", overwrite_a=True
    )
    eigvals = eigvals[::-1]
    U = U[:, ::-1]
    next_eigval = eigvals[k] if k < d else eigvals[k - 1]  # gap 0 when k = d
    return _solution(whitening, U[:, :k], eigvals, next_eigval, "full")


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


def _solve_factored(problem, whitening):
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
    qr, tau = _householder_qr(whitening.solve(S, order="F"))
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
    return _solution(whitening, _times_q(qr, tau, U[:, :k]), eigvals,
                     next_eigval, "factored")


def solve(problem):
    """Solve the pencil and return the top-k B-orthonormal eigenvectors."""
    whitening = _Whitening(_constraint_blocks(problem), problem.constraint_low_rank)
    factor = problem.objective_factor
    if factor is not None and takes_factored_route(factor[0].shape[1], problem.dim):
        solution = _solve_factored(problem, whitening)
        if solution is not None:
            return solution
    return _solve_full(problem, whitening)
