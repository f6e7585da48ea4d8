"""Label kernels and the term algebra of multi-view pencils.

Every pencil side in the package is a sum of KernelTerms over factored
LabelKernels; ``materialize`` turns such a sum into matrices and
``materialize_grads`` pushes pencil adjoints back onto the views.  Every
side produced here is exactly symmetric, so downstream eigensolvers never
see asymmetry beyond exact floating-point roundoff.

Sufficient statistics.  The terms of one ``materialize`` call share one
class indicator Y (c x n, class counts cnt, Sigma = diag(cnt)); terms that
carry no kernel use the one-class indicator.  A ``ClassStatistics`` object
reads the stacked views X (d x n) once and holds

* the mean mu = X 1 / n,
* the centred class sums S = (X - mu 1^T) Y^T (d x c),
* the class-centred views X_w (every sample minus the mean of its class),
  kept as the one d x n copy the statistics make,
* the Gram C_w = X_w X_w^T, whole or as its diagonal blocks,

and ``materialize(terms, statistics)`` builds every term from them in d x d
algebra, without touching the samples.  The object is made once per fit
(``ClassStatistics.of(terms, views)`` computes what a term list reads) and
passed explicitly: the fit's packaging takes the means and W from the same
object, and a deep epoch makes one per epoch.

With F = [S, mu] (d x (c + 1)), X = X_w + F [Sigma^-1; 1^T] Y and
X_w Y^T = 0, so a kernel K = eye I + Y^T M Y gives

    X K X^T = eye C_w + F Mt F^T,
    Mt = [[eye Sigma^-1 + M, a], [a^T, cnt^T a]],  a = eye 1 + M cnt,

where K 1 = Y^T a.  A blockdiag term takes the diagonal blocks of the same
expression.  The terms of one side and layout add their (eye, Mt) first, so
the statistics make one centred d x n copy of the views, the Gram C_w and a
few n d c products (S, and the class means, which one gemm subtracts from
the copy in place), and ``materialize`` then one F Mt F^T per side and
layout (per diagonal block for blockdiag), whatever the number of terms.
With one class (the one-class indicator of a label-free spec) S = X_c 1 is
exactly zero: it is set to 0, not computed, and the centred copy is already
class-centred.  Computed, S would be a rounding residue that depends on
where the copy lies in memory.

Objective factors.  The third value ``materialize`` returns is a factor
(S, M) of the objective (``_plan`` decides which), for ``gevd``'s solve in
its rank:

* an objective of dense terms with eye = 0 (between, center_distance:
  the rank-c targets) has this F and Mt, rank at most c + 1;
* one with eye != 0 (MCCA's centering kernel) has the samples factor
  ([X_w | F'], blockdiag(eye I_n, Mt')), with F' and Mt' the F and Mt
  without unused columns, and simply (X_w, eye I_n) when Mt is zero, as
  for one class.  It is made only where ``gevd`` would take it, n plus the
  columns of F' below 0.4 d (``takes_factored_route``): MCCA at 3 x 250
  dims and n = 250, not at 3 x 50 dims and n = 1500.

With a factor, ``materialize`` returns the objective as the function that
forms it, and the ``gevd.GevdProblem`` of ``methods.fit`` and deep training
calls it only when the objective is read; formed, it is the same array as
without the factor.

Whitening from the samples.  An objective of dense and blockdiag terms
without a factor (MLDA, GMA, MvDA_CCA, and MCCA where n is too large for
its samples factor) over a constraint that comes as blocks (below, with or
without a mean term) is returned, where n <= d (``whitens_samples``,
measured there), as a ``SampleObjective``:
X_w, F, the view blocks and the summed (eye, Mt) of a diagonal block
(dense plus blockdiag terms) and of an off-diagonal one (dense terms), from
which ``gevd`` whitens C = L^-1 A L^-T one block pair at a time, as
e_st T_s T_t^T + Phi_s M_st Phi_t^T with T_s = L_s^-1 X_w,s and
Phi_s = L_s^-1 F_s.  For MLDA and GMA the dense eye 1 and the blockdiag
eye -1 cancel on the diagonal blocks, which are then F_s Mt F_s^T alone.
Called, the object forms the dense objective, the same array as without
it; a fit never calls it.

Constraint blocks.  A constraint without dense and representer terms
(MCCA, MvOPLS, MvMDA, MLDA and GMA: blockdiag(X_s K X_s^T)) is returned as
the list of its diagonal blocks, each exactly symmetric, and never written
into a d x d array of zeros; ``framework.pencil`` adds gamma to each, and
``gevd`` factors them as given.

Mean terms.  A kernel m 1 1^T (the mean kernel, eye 0 and M constant) gives
X K X^T = m n^2 mu mu^T, so the mean-consistency regularizer's
blockdiag(mean) - dense(mean) / v is n U (I - 1 1^T / v) U^T with
U = blockdiag(mu_s): positive semidefinite, of rank v - 1.  Where every
other constraint term is blockdiag (MvDA and MvDA_CCA, not MvDA_VC and
MvLDA, whose representer and joint terms are not low rank),
``_split_mean`` takes the constraint's mean terms out of the sum, and the
constraint is returned as a ``LowRankBlocks``: the blocks of the other
terms (X_s H X_s^T) and Z = sqrt(n) U Q with Q the Helmert basis of 1-perp
(``_mean_factor``), so that Z Z^T is the mean term.  With one view the
mean terms cancel, and the blocks come alone.  The two mean parts
stay together: the diagonal blocks of the dense part alone hold
-(n / v) mu_s mu_s^T, so folding only its off-diagonal blocks into blocks
that keep them leaves an indefinite remainder.  mu is the statistics'
mean, and the mean term, ~n |mu|^2, is never rounded into the blocks; a
dense constraint sums it with them (``_side``).

Gram blocks only where read.  C_w is formed whole, one n d^2 product, only
when a dense term has eye != 0 or the representer coupling needs the raw
Gram; an objective with the samples factor, or a ``SampleObjective``, reads
no Gram, and forms X_w X_w^T only when read.  When only blockdiag terms
read it (the constraint's, for a sample objective), the statistics form its
diagonal blocks alone, one n d_s^2 product per view: at 3 x 250 dims and
n = 250 on one BLAS thread, 1.4 ms against 5.3 ms for the whole Gram.
The blocks round differently from the same blocks of the whole Gram, in
the last bits.

Each side written once.  A side with dense terms starts as one fresh array,
eye C_w + F Mt F^T (gemm adds the product into the scaled copy of C_w in
place); the blockdiag blocks are added into it, and it is symmetrized once.
``symmetrize``, the package's only one, works in place: it writes
(M + M^T) / 2 into M one pair of mirrored tiles at a time and returns M, so
a caller that must keep its array passes a copy.  C_w and its blocks are
products X X^T, exactly symmetric, so a side without dense terms only
symmetrizes the F Mt F^T of each block.

Exact zeros.  a vanishes in exact arithmetic for the centering, between,
within, center_distance and centered_onehot kernels; that is what makes them
blind to the data mean.  Every entry of the computed a within 4 (c + 2) eps
(|eye| + (|M| cnt)_r) of zero, a bound on its rounding, is set to exactly 0,
and when the mu row of a side's summed Mt is then zero, mu does not enter
that side at all.  Without this step the rounding residue of a, multiplied
by mu mu^T, would bring back the precision loss of views with a large mean.

Why class-centred.  C_w is formed from data with the overall and the class
means removed, so it rounds at the scale of the within-class spread, not of
the mean, and the within kernel (Mt = 0) returns it exactly: no term
subtracts a between part from a total.  The raw Gram that the representer
coupling needs is rebuilt as X X^T = C_w + F Mt F^T with the identity
kernel's Mt.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm


# Tile edge of ``symmetrize``: a tile and its mirror stay in cache.
_TILE = 128
# gevd's factored route runs while the factor's rank r is below this share
# of d (``takes_factored_route``).
_FACTORED_RANK_RATIO = 0.4


def symmetrize(M):
    """(M + M^T) / 2 written into M itself and returned, one pair of mirrored
    tiles at a time: the bits of ``(M + M.T) * 0.5`` without a second d x d
    array or a strided whole-matrix transpose."""
    d = M.shape[0]
    for i in range(0, d, _TILE):
        for j in range(i, d, _TILE):
            upper = M[i:i + _TILE, j:j + _TILE]
            upper += M[j:j + _TILE, i:i + _TILE].T
            upper *= 0.5
            if j > i:
                M[j:j + _TILE, i:i + _TILE] = upper.T
    return M


@dataclass(frozen=True)
class LabelKernel:
    """The n x n kernel eye * I_n + Y^T M Y, kept in factored form.

    Y is the c x n class indicator and M a symmetric c x c matrix; ``apply``
    costs O(n d c) and forms no n x n array.
    """

    eye: float
    Y: np.ndarray
    M: np.ndarray

    def apply(self, Z):
        """Z K for a d x n matrix Z."""
        out = ((Z @ self.Y.T) @ self.M) @ self.Y
        if self.eye:
            out += self.eye * Z
        return out


def label_kernels(indicator):
    """Every label kernel of the package, by name.

    With Sigma = Y Y^T, Q = Y^T Sigma^-1 Y and 1 1^T = Y^T 1_c 1_c^T Y:
    centering H_n = I - 1 1^T / n, between Q - 1 1^T / n, within I - Q (so
    between + within = centering), mean 1 1^T / n, center_distance
    Y^T Sigma^-1 H_c Sigma^-1 Y, which spreads the class means of two views
    around their average, and centered_onehot H_n Y^T Y H_n = Y^T R^T R Y with
    R = I - cnt 1^T / n (Y H_n = R Y).  The one-class indicator gives the
    plain H_n.
    """
    Y, c, counts = indicator.Y, indicator.n_classes, indicator.counts
    inv = np.diag(1.0 / counts)
    ones = np.full((c, c), 1.0 / Y.shape[1])
    Hc = np.eye(c) - 1.0 / c
    R = np.eye(c) - np.outer(counts, np.ones(c)) / counts.sum()
    return {
        "centering": LabelKernel(1.0, Y, -ones),
        "between": LabelKernel(0.0, Y, inv - ones),
        "within": LabelKernel(1.0, Y, -inv),
        "mean": LabelKernel(0.0, Y, ones),
        "center_distance": LabelKernel(0.0, Y, inv @ Hc @ inv),
        "centered_onehot": LabelKernel(0.0, Y, R.T @ R),
    }


def _ridge_inverse(G, d, view_index):
    """(G + eps I)^-1 for a Gram G of a view with d rows, eps = 1e-10 tr(G) / d."""
    eps = 1e-10 * np.trace(G) / d
    try:
        inverse = np.linalg.inv(symmetrize(G + eps * np.eye(G.shape[0])))
    except np.linalg.LinAlgError:
        raise ValueError(
            f"view {view_index + 1}: the Gram of X is singular even after jitter"
        ) from None
    return symmetrize(inverse)


def _ridge_pinv(X, view_index=0):
    """F = X (X^T X + eps I)^-1 through the smaller of the two Grams.

    eps = 1e-10 ||X||_F^2 / d on either side.  When d <= n the push-through
    identity gives F = S X with the d x d S = (X X^T + eps I)^-1; otherwise
    F = X K with the n x n K = (X^T X + eps I)^-1.  The smaller Gram is also
    the better conditioned one.  Returns ``(F, inverse, rows)``, where
    ``rows`` says that ``inverse`` is S.
    """
    d, n = X.shape
    rows = d <= n
    inverse = _ridge_inverse(X @ X.T if rows else X.T @ X, d, view_index)
    return (inverse @ X if rows else X @ inverse), inverse, rows


def _view_blocks(views):
    """The row slice of each view in the stacked views."""
    blocks, start = [], 0
    for X in views:
        blocks.append(slice(start, start + X.shape[0]))
        start += X.shape[0]
    return blocks


def pseudo_inverse_coupling(views, gram=None):
    """Dense coupling M built from ridge-regularized pseudo-inverses.

    With F_s = X_s (X_s^T X_s + eps I)^-1, block (s, t) of M is
    (v - 1) F_s F_s^T on the diagonal and -F_s F_t^T off it, so that
    tr(W^T P^T M P W) sums the pairwise squared differences of the per-view
    representer coefficients.

    When every view has d_s <= n, F_s = S_s X_s with
    S_s = (X_s X_s^T + eps I)^-1, so F_s F_t^T = S_s G_st S_t needs only the
    raw Gram G = X X^T of the stacked views; ``gram`` is that G when the
    caller has it.  Otherwise every F_s comes from ``_ridge_pinv``.
    """
    v = len(views)
    if max(X.shape[0] for X in views) <= views[0].shape[1]:
        if gram is None:
            stacked = np.vstack(views)
            gram = stacked @ stacked.T
        blocks = _view_blocks(views)
        inverses = [
            _ridge_inverse(gram[b, b], b.stop - b.start, s)
            for s, b in enumerate(blocks)
        ]
        M = np.empty_like(gram)
        # Blocks on and above the diagonal; the ones below mirror them.
        for s, (bs, Ss) in enumerate(zip(blocks, inverses)):
            left = Ss @ gram[bs, bs.start:]
            for bt, St in zip(blocks[s:], inverses[s:]):
                block = left[:, bt.start - bs.start:bt.stop - bs.start] @ St
                if bt == bs:
                    M[bs, bs] = (v - 1) * block
                else:
                    M[bs, bt] = -block
                    M[bt, bs] = -block.T
        return symmetrize(M)
    F = [_ridge_pinv(X, s)[0] for s, X in enumerate(views)]
    blocks = [
        [(v - 1) * (F[s] @ F[s].T) if s == t else -(F[s] @ F[t].T)
         for t in range(v)]
        for s in range(v)
    ]
    return symmetrize(np.block(blocks))


def _representer_grads(views, G, coeff):
    """Per-view gradients of coeff * <G, pseudo_inverse_coupling(views)>.

    With D the gradient with respect to F, the adjoint is S D - (R + R^T) X
    with R = F D^T S on the row side, and D K - X (E + E^T) with
    E = K D^T X K on the column side.
    """
    v = len(views)
    blocks = _view_blocks(views)
    pinvs = [_ridge_pinv(Z, s) for s, Z in enumerate(views)]
    Fs = [F for F, _, _ in pinvs]
    grads = []
    for u, (Z, (F, inverse, rows)) in enumerate(zip(views, pinvs)):
        Gu = [G[blocks[u], bw] for bw in blocks]
        D = (v - 1) * (Gu[u] @ F)
        for w in range(v):
            if w != u:
                D = D - Gu[w] @ Fs[w]
        D = 2.0 * coeff * D
        if rows:
            R = F @ D.T @ inverse
            grads.append(inverse @ D - (R + R.T) @ Z)
        else:
            E = inverse @ (D.T @ Z) @ inverse
            grads.append(D @ inverse - Z @ (E + E.T))
    return grads


SIDES = ("objective", "constraint")


@dataclass(frozen=True)
class KernelTerm:
    """One additive piece of a pencil side, coeff * layout(X K X^T).

    ``layout`` is "dense" (X K X^T over the vertically stacked views),
    "blockdiag" (X_s K X_s^T on the diagonal, one block per view) or
    "representer" (the pseudo-inverse coupling, which takes no kernel).
    ``kernel`` is a LabelKernel; None stands for the identity.
    """

    side: str  # "objective" or "constraint"
    layout: str
    coeff: float
    kernel: LabelKernel | None = None


def _shared_indicator(terms, n):
    """The class indicator Y of the terms' kernels; one class if none has one."""
    Y = None
    for term in terms:
        if term.kernel is None or term.kernel.Y is Y:
            continue
        if Y is not None and not np.array_equal(term.kernel.Y, Y):
            raise ValueError("the terms of one pencil must share one class indicator")
        Y = term.kernel.Y
    return np.ones((1, n)) if Y is None else Y


def _subtract_product(X, A, B):
    """X -= A B in place: one gemm adds -A B into whichever of X and X^T is
    Fortran-ordered, so no temporary the size of X is made.  A and B are
    passed as the transposes of C-ordered arrays, which gemm reads without
    a copy."""
    if X.flags.f_contiguous:
        dgemm(-1.0, A.T, B.T, trans_a=True, trans_b=True, beta=1.0, c=X,
              overwrite_c=True)
    else:
        dgemm(-1.0, B.T, A.T, beta=1.0, c=X.T, overwrite_c=True)


class ClassStatistics:
    """The sufficient statistics of stacked views under one class indicator.

    ``ClassStatistics(views, Y, gram)`` reads the views once: it stacks a
    copy, centres it in place by mu and then by the class means, and keeps

    * ``views``, the views as float arrays, and ``blocks``, the row slice of
      each view in the stack;
    * ``Y`` (c x n) and its class counts ``counts``;
    * ``F`` = [S, mu] (d x (c + 1));
    * ``X_w``, the class-centred copy (d x n, C-ordered);
    * as much of C_w as ``gram`` asks: "full" gives ``C_w`` and its diagonal
      blocks ``C_blocks`` (views of it), "blocks" only the diagonal blocks,
      one X_w,s X_w,s^T per view, and None neither (None and Nones).

    Every Gram is one product of X_w.  With one class S is exactly zero and
    the centred copy is already class-centred.
    ``ClassStatistics.of(terms, views)`` computes what a term list reads, so
    ``materialize`` and the packaging of a fit share one pass over the
    samples.  The object is passed explicitly, never cached by dataset: a
    cache would go stale if a caller changed the views.
    """

    # Finite views can overflow a Gram; GevdProblem rejects it, so do not warn.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, views, Y, gram=None):
        self.views = [np.asarray(X, dtype=float) for X in views]
        self.blocks = _view_blocks(self.views)
        self.Y = Y
        self.counts = Y.sum(axis=1)
        X = np.vstack(self.views)
        mu = X.sum(axis=1) / X.shape[1]
        X -= mu[:, None]
        one_class = len(self.counts) == 1
        S = np.zeros((len(X), 1)) if one_class else X @ Y.T
        self.F = np.column_stack((S, mu))
        if not one_class:
            # Y is one-hot, so every entry of the product is exact and this is
            # X - (S / counts) Y bit for bit.
            _subtract_product(X, S / self.counts, Y)
        self.X_w = X
        self.C_w, self.C_blocks = None, [None] * len(self.blocks)
        if gram == "full":
            self.C_w = X @ X.T
            self.C_blocks = [self.C_w[b, b] for b in self.blocks]
        elif gram == "blocks":
            self.C_blocks = [X[b] @ X[b].T for b in self.blocks]

    @classmethod
    def of(cls, terms, views):
        """The statistics ``materialize(terms, ...)`` reads on these views:
        the terms' class indicator and the part of C_w ``_plan`` names."""
        Y = _shared_indicator(terms, np.shape(views[0])[1])
        pieces, couplings, _ = _pencil_pieces(terms, Y.sum(axis=1), len(views))
        return cls(views, Y, _plan(pieces, couplings, views)[0])

    @property
    def mu(self):
        """The mean of the stacked views (a strided view of F)."""
        return self.F[:, -1]

    @property
    def S(self):
        """The centred class sums X_c Y^T (a strided view of F)."""
        return self.F[:, :-1]


def takes_factored_route(r, d):
    """Whether ``gevd.solve`` tries its factored route for an objective
    factor with r columns in dimension d: r < 0.4 d (``_FACTORED_RANK_RATIO``,
    measured in the ``gevd`` module docstring).  ``_plan`` offers a samples
    factor under the same rule."""
    return r < _FACTORED_RANK_RATIO * d


def whitens_samples(n, d):
    """Whether ``gevd.solve``'s full route whitens a ``SampleObjective``'s
    samples for n samples in dimension d: n <= d.  ``_plan`` offers one under
    this rule.

    In multiply-adds over v equal views, whitening the samples costs
    d^2 n / (2 v) for the constraint's Gram blocks, as much for the solves
    L_s^-1 X_w,s and (v - 1) d^2 n / (2 v) for the blocks T_s T_t^T below the
    diagonal; whitening a formed objective costs the whole Gram, d^2 n / 2,
    and the blockwise reduction, (v + 1) d^3 / (2 v^2).  At v = 3 the two
    meet at n = 4 d / 3.  Measured on
    one BLAS thread, whole fits with three equal views, 10 classes and
    k = 9, the sample whitening's fit time over the formed objective's
    (best of 7, MLDA / GMA):

        n / d          0.2        0.33       0.5        0.75       1          1.5
        d = 300    0.76/0.84  0.81/0.80  0.84/0.80  0.83/0.83  0.89/0.88  1.03/1.00
        d = 750    0.73/0.67  0.76/0.78  0.81/0.79  0.88/0.89  0.92/0.95  0.99/1.01

    so the samples pay up to n = d and break even near n = 1.5 d, where the
    fit's common eigensolve, Cholesky and statistics dilute the difference.
    MCCA, whose diagonal blocks keep their T_s T_s^T, read 0.84, 0.90 and
    0.96 at d = 300 and 0.86, 0.92 and 1.03 at d = 750 for n / d = 0.5,
    0.75 and 1 (below about 0.4 d it takes its samples factor instead).
    """
    return n <= d


@dataclass(frozen=True, eq=False)
class LowRankBlocks:
    """A constraint blockdiag(blocks) + Z Z^T: the diagonal blocks of its
    blockdiag terms, each exactly symmetric, and the d x m factor Z of its
    positive semidefinite low-rank term (module docstring)."""

    blocks: list
    Z: np.ndarray


def _is_mean_kernel(kernel):
    """Whether a kernel is m 1 1^T: no identity part and M constant."""
    return (kernel is not None and not kernel.eye
            and bool((kernel.M == kernel.M.flat[0]).all()))


def _split_mean(terms, n, v):
    """``(terms, beta)``: the terms without the constraint's mean kernels and
    the weight beta of the mean term beta U (I - 1 1^T / v) U^T they sum
    to, or the terms as given and None (module docstring).

    A term coeff * layout(X (m 1 1^T) X^T) is coeff m n^2 U U^T for
    blockdiag and coeff m n^2 U 1 1^T U^T for dense, U = blockdiag(mu_s), so
    the mean terms sum to U (beta I + delta 1 1^T) U^T.  They are split off
    only when every other constraint term is blockdiag, beta > 0 and
    beta + v delta is zero to its rounding, as the mean-consistency
    regularizer's are.
    """
    rest, beta, delta = [], 0.0, 0.0
    for term in terms:
        if term.side == "constraint" and _is_mean_kernel(term.kernel):
            weight = term.coeff * term.kernel.M.flat[0] * float(n) ** 2
            if term.layout == "blockdiag":
                beta += weight
            else:
                delta += weight
        elif term.side == "constraint" and term.layout != "blockdiag":
            return terms, None
        else:
            rest.append(term)
    rounding = 4 * v * np.finfo(float).eps * (abs(beta) + v * abs(delta))
    if not (beta > 0 and abs(beta + v * delta) <= rounding):
        return terms, None
    return rest, beta


def _mean_factor(beta, statistics):
    """Z = sqrt(beta) U Q with Z Z^T = beta U (I - 1 1^T / v) U^T, Q the
    v x (v - 1) Helmert basis of 1-perp."""
    v = len(statistics.blocks)
    Q = np.zeros((v, v - 1))
    for j in range(1, v):
        Q[:j, j - 1] = 1.0 / np.sqrt(j * (j + 1))
        Q[j, j - 1] = -j / np.sqrt(j * (j + 1))
    Q *= np.sqrt(beta)
    mu = statistics.mu
    Z = np.empty((len(mu), v - 1))
    for b, row in zip(statistics.blocks, Q):
        Z[b] = np.outer(mu[b], row)
    return Z


def _pencil_pieces(terms, counts, v):
    """``(pieces, couplings, beta)`` of a term list: ``_summed_terms`` of the
    terms left by ``_split_mean``, and its mean term's weight."""
    terms, beta = _split_mean(terms, counts.sum(), v)
    pieces, couplings = _summed_terms(
        terms, lambda kernel: _kernel_pieces(kernel, counts)
    )
    return pieces, couplings, beta


def _block_constraint(pieces, couplings):
    """Whether the constraint has neither dense nor representer terms, so
    ``materialize`` returns it as its diagonal blocks."""
    return ("constraint", "dense") not in pieces and "constraint" not in couplings


def _plan(pieces, couplings, views):
    """``(gram, factor)`` for terms summed by ``_summed_terms``: the part of
    C_w they read and the kind of the objective's factor.

    The factor is "classes" (S = F) when the objective is dense terms alone
    with eye = 0, and "samples" (S = [X_w | F']) when they have eye != 0 and
    S would have fewer columns than ``gevd`` solves in rank at this d.
    Otherwise it is "sample objective" (a ``SampleObjective``) when the
    objective has dense or blockdiag terms and no representer term, the
    constraint comes as blocks (``_block_constraint``, with or without the
    mean terms ``_split_mean`` took out of ``pieces``) and n <= d
    (``whitens_samples``).  An objective with a samples factor or a sample
    objective reads no Gram.  The Gram is "full" when a dense term reads it
    or the representer coupling needs the raw Gram (every d_s <= n), else
    "blocks" when a blockdiag term has eye != 0, else None.
    """
    n = np.shape(views[0])[1]
    dims = [np.shape(X)[0] for X in views]
    factor = None
    layouts = {layout for side, layout in pieces if side == "objective"}
    if layouts == {"dense"} and "objective" not in couplings:
        eye, Mt = pieces["objective", "dense"]
        if not eye:
            factor = "classes"
        elif takes_factored_route(n + _kept_columns(Mt), sum(dims)):
            factor = "samples"
    if (factor is None and layouts and "objective" not in couplings
            and _block_constraint(pieces, couplings)
            and whitens_samples(n, sum(dims))):
        factor = "sample objective"
    unread = factor in ("samples", "sample objective")
    reads = {layout for (side, layout), (eye, _) in pieces.items()
             if eye and not (side == "objective" and unread)}
    if couplings and max(dims) <= n or "dense" in reads:
        return "full", factor
    return ("blocks" if "blockdiag" in reads else None), factor


def _kernel_pieces(kernel, counts):
    """(eye, Mt) with X K X^T = eye C_w + F Mt F^T (module docstring);
    ``kernel`` None is the identity."""
    c = len(counts)
    eye, M = (1.0, np.zeros((c, c))) if kernel is None else (kernel.eye, kernel.M)
    a = eye + M @ counts
    rounding = 4 * (c + 2) * np.finfo(float).eps * (abs(eye) + np.abs(M) @ counts)
    a[np.abs(a) <= rounding] = 0.0
    Mt = np.empty((c + 1, c + 1))
    Mt[:c, :c] = M + np.diag(eye / counts) if eye else M
    Mt[:c, c] = Mt[c, :c] = a
    Mt[c, c] = a @ counts
    return eye, Mt


def _without_unused_mean(F, Mt):
    """Drop the mu column of F when Mt gives it no weight."""
    return (F[:, :-1], Mt[:-1, :-1]) if not Mt[-1].any() else (F, Mt)


def _kept_columns(Mt):
    """The columns of F the samples factor keeps for this Mt: none when Mt
    is zero, else F without an unused mu column."""
    if not Mt.any():
        return 0
    return len(Mt) if Mt[-1].any() else len(Mt) - 1


def _sample_factor(X_w, F, eye, Mt):
    """(S, M) = ([X_w | F'], blockdiag(eye I_n, Mt')) with S M S^T =
    eye C_w + F Mt F^T, F' and Mt' as ``_without_unused_mean`` leaves them;
    (X_w, eye I_n) when Mt is zero."""
    n = X_w.shape[1]
    if not _kept_columns(Mt):
        return X_w, eye * np.eye(n)
    F, Mt = _without_unused_mean(F, Mt)
    M = np.zeros((n + len(Mt),) * 2)
    M[:n, :n] = eye * np.eye(n)
    M[n:, n:] = Mt
    return np.hstack((X_w, F)), M


def _kernel_sum(eye, Mt, F, C_w):
    """eye C_w + F Mt F^T as one fresh array (module docstring)."""
    F, Mt = _without_unused_mean(F, Mt)
    if not eye:
        return (F @ Mt) @ F.T
    # gemm adds F (F Mt)^T into the Fortran-ordered transpose of the copy of
    # eye C_w, in place: the copy becomes eye C_w + F Mt F^T.
    total = np.multiply(C_w, eye)
    return dgemm(1.0, F, F @ Mt, trans_b=True, beta=1.0, c=total.T,
                 overwrite_c=True).T


def _summed_terms(terms, pieces):
    """The terms summed per side and layout: ``(kernels, couplings)``.

    ``kernels`` maps each (side, layout) of the dense and blockdiag terms to
    [eye, M], the sum of coeff * pieces(kernel) over its terms (kernel None
    for the identity); ``couplings`` maps a side to the summed coefficient of
    its representer terms.
    """
    kernels, couplings = {}, {}
    for term in terms:
        if term.layout == "representer":
            couplings[term.side] = couplings.get(term.side, 0.0) + term.coeff
        elif term.layout in ("dense", "blockdiag"):
            eye, M = pieces(term.kernel)
            total = kernels.setdefault((term.side, term.layout), [0.0, 0.0])
            total[0] += term.coeff * eye
            total[1] = total[1] + term.coeff * M
        else:
            raise ValueError(f"unknown term layout {term.layout!r}")
    return kernels, couplings


# Finite views can overflow a side; GevdProblem rejects it, so do not warn.
@np.errstate(over="ignore", invalid="ignore")
def _side(side, pieces, couplings, statistics, C_w, gram):
    """One side of ``materialize``: its dense terms as one fresh array, its
    blockdiag blocks added in (from the blocks of C_w when it is given), its
    representer coupling last."""
    F = statistics.F
    d = F.shape[0]
    dense = pieces.get((side, "dense"))
    total = _kernel_sum(*dense, F, C_w) if dense else np.zeros((d, d))
    if (side, "blockdiag") in pieces:
        C_blocks = (statistics.C_blocks if C_w is None
                    else [C_w[b, b] for b in statistics.blocks])
        for b, C_b in zip(statistics.blocks, C_blocks):
            block = _kernel_sum(*pieces[side, "blockdiag"], F[b], C_b)
            total[b, b] += block if dense else symmetrize(block)
    if side in couplings:
        total += couplings[side] * pseudo_inverse_coupling(statistics.views, gram)
    return symmetrize(total) if dense else total


@np.errstate(over="ignore", invalid="ignore")
def _side_blocks(side, pieces, statistics):
    """A side without dense or representer terms as its diagonal blocks, each
    exactly symmetric: the blocks ``_side`` writes into zeros."""
    if (side, "blockdiag") not in pieces:
        return [np.zeros((b.stop - b.start,) * 2) for b in statistics.blocks]
    F = statistics.F
    return [symmetrize(_kernel_sum(*pieces[side, "blockdiag"], F[b], C_b))
            for b, C_b in zip(statistics.blocks, statistics.C_blocks)]


@dataclass(frozen=True, eq=False)
class SampleObjective:
    """An objective of dense and blockdiag kernel terms kept as its samples,
    which ``gevd.solve`` whitens one view block at a time (module docstring).

    Block (s, t) of the objective is eye X_w,s X_w,t^T + F_s Mt F_t^T with
    (eye, Mt) = ``diagonal`` for s = t and ``off_diagonal`` otherwise; an Mt
    whose mu row is zero has lost it, so Mt always multiplies the first
    len(Mt) columns of F.  ``scale`` is the sum of the largest |eye| and
    |Mt| entry of the dense and the blockdiag terms.  Calling the object
    forms the dense objective: the array ``materialize`` returns without it.
    """

    X_w: np.ndarray
    F: np.ndarray
    blocks: list
    diagonal: tuple
    off_diagonal: tuple
    scale: float
    form: Callable[[], np.ndarray]

    def __call__(self):
        return self.form()

    @np.errstate(over="ignore", invalid="ignore")
    def term_bound(self):
        """max_i (||X_w,i||_1 + ||F_i||_1)^2 max(scale, 1) over the rows i: it
        bounds every entry of each term of the formed objective and of the
        Gram formed on the way, and is non-finite when the samples are."""
        rows = np.abs(self.X_w).sum(axis=1) + np.abs(self.F).sum(axis=1)
        return rows.max(initial=0.0) ** 2 * max(self.scale, 1.0)


def _sample_objective(statistics, pieces, form):
    """The ``SampleObjective`` of the objective's dense and blockdiag pieces."""
    c = len(statistics.counts)
    zero = (0.0, np.zeros((c + 1, c + 1)))
    dense = pieces.get(("objective", "dense"), zero)
    blockdiag = pieces.get(("objective", "blockdiag"), zero)
    diagonal = (dense[0] + blockdiag[0], dense[1] + blockdiag[1])
    scale = sum(max(abs(eye), np.abs(Mt).max()) for eye, Mt in (dense, blockdiag))
    return SampleObjective(
        statistics.X_w, statistics.F, statistics.blocks,
        (diagonal[0], _without_unused_mean(statistics.F, diagonal[1])[1]),
        (dense[0], _without_unused_mean(statistics.F, dense[1])[1]),
        scale, form,
    )


@np.errstate(over="ignore", invalid="ignore")
def materialize(terms, statistics):
    """Sum KernelTerms on the views of a ClassStatistics into ``(objective,
    constraint, factor)``.

    ``statistics`` must be on the terms' class indicator and hold the part of
    C_w they read, as ``ClassStatistics.of(terms, views)`` does (ValueError
    otherwise); the module docstring says how the sum is formed.

    ``factor`` is (S, M) with objective = S M S^T when ``_plan`` gives the
    objective one, and None otherwise.  For eye = 0 S is the F = [S, mu] of
    the statistics, without the mu column when the kernel's a is zero
    (between, center_distance), so its rank is at most c, and M is the
    summed coeff * Mt.  For eye != 0 it is ``_sample_factor``'s, through the
    kept X_w.  With a factor, the objective is returned as a function of no
    arguments that forms it, for a factor-defined ``gevd.GevdProblem``, and
    where ``_plan`` names a sample objective, as a ``SampleObjective``;
    formed, either is the same array.

    A constraint without dense and representer terms is returned as the
    list of its diagonal blocks, one per view, each exactly symmetric; one
    whose only other terms are mean kernels as a ``LowRankBlocks`` of those
    blocks and the mean term's factor (module docstring); any other
    constraint as one d x d array.
    """
    views, F, C_w = statistics.views, statistics.F, statistics.C_w
    n = views[0].shape[1]
    Y = _shared_indicator(terms, n)
    if Y is not statistics.Y and not np.array_equal(Y, statistics.Y):
        raise ValueError("the statistics are not on the terms' class indicator")
    counts = statistics.counts
    pieces, couplings, beta = _pencil_pieces(terms, counts, len(views))
    read, kind = _plan(pieces, couplings, views)
    if (read == "full" and C_w is None
            or read == "blocks" and statistics.C_blocks[0] is None):
        raise ValueError("the statistics lack the part of C_w the terms read")
    raw_gram = bool(couplings) and max(X.shape[0] for X in views) <= n
    gram = _kernel_sum(*_kernel_pieces(None, counts), F, C_w) if raw_gram else None
    factor = None
    if kind == "classes":
        factor = _without_unused_mean(F, pieces["objective", "dense"][1])
    elif kind == "samples":
        factor = _sample_factor(statistics.X_w, F, *pieces["objective", "dense"])

    def objective():
        C = C_w
        if C is None and kind in ("samples", "sample objective"):
            with np.errstate(over="ignore", invalid="ignore"):
                C = statistics.X_w @ statistics.X_w.T
        return _side("objective", pieces, couplings, statistics, C, gram)

    if kind == "sample objective":
        objective = _sample_objective(statistics, pieces, objective)
    elif factor is None:
        objective = objective()
    if _block_constraint(pieces, couplings):
        constraint = _side_blocks("constraint", pieces, statistics)
        if beta is not None and len(views) > 1:
            constraint = LowRankBlocks(constraint, _mean_factor(beta, statistics))
    else:
        constraint = _side("constraint", pieces, couplings, statistics, C_w, gram)
    return objective, constraint, factor


def _apply_sum(kernel, Z):
    """Z K for a summed kernel, without the class products when its M is 0."""
    return kernel.apply(Z) if kernel.M.any() else kernel.eye * Z


def materialize_grads(terms, views, adjoints):
    """Per-view gradients of <bar_A, objective> + <bar_B, constraint>.

    ``adjoints`` is ``(bar_A, bar_B)``, symmetric d x d, in the order
    ``materialize`` returns the sides; with symmetric kernels the gradient of
    <G, X K X^T> with respect to X is 2 G X K.  As in ``materialize``, the
    terms of one side and layout first add their coeff * (eye, M) into one
    kernel, so each side and layout applies one kernel whatever its number
    of terms, and terms that cancel apply none.
    """
    adjoint = dict(zip(SIDES, adjoints))
    Y = _shared_indicator(terms, views[0].shape[1])
    identity = (1.0, np.zeros((Y.shape[0],) * 2))
    kernels, couplings = _summed_terms(
        terms, lambda kernel: identity if kernel is None else (kernel.eye, kernel.M)
    )
    blocks = _view_blocks(views)
    grads = [np.zeros_like(X) for X in views]
    for (side, layout), (eye, M) in kernels.items():
        if not (eye or M.any()):
            continue
        G, kernel = adjoint[side], LabelKernel(eye, Y, M)
        if layout == "dense":
            full = 2.0 * _apply_sum(kernel, G @ np.vstack(views))
            for g, b in zip(grads, blocks):
                g += full[b, :]
        else:
            for g, b, X in zip(grads, blocks, views):
                g += 2.0 * _apply_sum(kernel, G[b, b] @ X)
    for side, coeff in couplings.items():
        for s, g in enumerate(_representer_grads(views, adjoint[side], coeff)):
            grads[s] += g
    return grads
