"""Scatter constructions and the term algebra of multi-view pencils.

Every pencil side in the package is a sum of KernelTerms; ``materialize``
turns such a sum into dense matrices and ``materialize_grads`` pushes pencil
adjoints back onto the views.  Every matrix produced here is explicitly
symmetrized, so downstream eigensolvers never see asymmetry beyond exact
floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def symmetrize(M):
    return 0.5 * (M + M.T)


def blockdiag_dense(matrices):
    """Dense block-diagonal assembly of square matrices."""
    dims = [M.shape[0] for M in matrices]
    out = np.zeros((sum(dims), sum(dims)))
    pos = 0
    for M in matrices:
        d = M.shape[0]
        out[pos:pos + d, pos:pos + d] = M
        pos += d
    return out


def between_class_scatter(X, indicator):
    """S_b = X (Q - (1/n) 1 1^T) X^T.

    The kernel is centered, so raw and column-centered X give the same
    matrix.  Summing with the within-class scatter recovers the centered
    covariance X H_n X^T.
    """
    n = X.shape[1]
    K = indicator.Q - 1.0 / n
    return symmetrize(X @ K @ X.T)


def within_class_scatter(X, indicator):
    """S_w = X (I - Q) X^T, deviations from per-class means."""
    n = X.shape[1]
    K = np.eye(n) - indicator.Q
    return symmetrize(X @ K @ X.T)


def center_distance_kernel(indicator):
    """n x n kernel L_b = Y^T Sigma^-1 H_c Sigma^-1 Y.

    Sandwiching with raw views, X_s L_b X_t^T spreads the per-class mean
    vectors of the two views around their average.
    """
    Yn = indicator.Y / indicator.counts[:, None]
    c = indicator.n_classes
    Hc = np.eye(c) - np.full((c, c), 1.0 / c)
    return symmetrize(Yn.T @ Hc @ Yn)


def regularized_gram_inverse(X, view_index=0):
    """(X^T X + eps I)^-1 with the scale-aware jitter eps = 1e-10 tr(X^T X)/d."""
    d, n = X.shape
    G = X.T @ X
    eps = 1e-10 * np.trace(G) / d
    try:
        K = np.linalg.inv(symmetrize(G + eps * np.eye(n)))
    except np.linalg.LinAlgError:
        raise ValueError(
            f"view {view_index + 1}: X^T X is singular even after jitter"
        ) from None
    return symmetrize(K)


def pseudo_inverse_coupling(views):
    """Dense coupling M built from ridge-regularized pseudo-inverses.

    With F_s = X_s (X_s^T X_s + eps I)^-1, block (s, t) of M is
    (v - 1) F_s F_s^T on the diagonal and -F_s F_t^T off it, so that
    tr(W^T P^T M P W) sums the pairwise squared differences of the per-view
    representer coefficients.
    """
    v = len(views)
    F = [X @ regularized_gram_inverse(X, s) for s, X in enumerate(views)]
    blocks = [
        [(v - 1) * (F[s] @ F[s].T) if s == t else -(F[s] @ F[t].T)
         for t in range(v)]
        for s in range(v)
    ]
    return symmetrize(np.block(blocks))


def _representer_grads(views, G, coeff):
    """Per-view gradients of coeff * <G, pseudo_inverse_coupling(views)>."""
    v = len(views)
    offsets = np.cumsum([0] + [Z.shape[0] for Z in views])
    Ks = [regularized_gram_inverse(Z, s) for s, Z in enumerate(views)]
    Fs = [Z @ K for Z, K in zip(views, Ks)]
    grads = []
    for u in range(v):
        Gu = [
            G[offsets[u]:offsets[u + 1], offsets[w]:offsets[w + 1]]
            for w in range(v)
        ]
        D = (v - 1) * (Gu[u] @ Fs[u])
        for w in range(v):
            if w != u:
                D = D - Gu[w] @ Fs[w]
        D = 2.0 * coeff * D
        E = Ks[u] @ (D.T @ views[u]) @ Ks[u]
        grads.append(D @ Ks[u] - views[u] @ (E + E.T))
    return grads


SIDES = ("objective", "constraint")


@dataclass(frozen=True)
class KernelTerm:
    """One additive piece of a pencil side, coeff * layout(X K X^T).

    ``layout`` is "dense" (X K X^T over the vertically stacked views),
    "blockdiag" (X_s K X_s^T on the diagonal, one block per view) or
    "representer" (the pseudo-inverse coupling, which takes no kernel).
    ``kernel`` is a symmetric n x n matrix; None stands for the identity,
    so X X^T is formed without an n x n intermediate.
    """

    side: str  # "objective" or "constraint"
    layout: str
    coeff: float
    kernel: np.ndarray | None = None


def _times_kernel(M, kernel):
    return M if kernel is None else M @ kernel


def materialize(terms, views):
    """Sum KernelTerms on the given views into ``(objective, constraint)``."""
    stacked = np.vstack(views)
    d = stacked.shape[0]
    sides = {side: np.zeros((d, d)) for side in SIDES}
    for term in terms:
        if term.layout == "dense":
            M = _times_kernel(stacked, term.kernel) @ stacked.T
        elif term.layout == "blockdiag":
            M = blockdiag_dense(
                [_times_kernel(X, term.kernel) @ X.T for X in views]
            )
        elif term.layout == "representer":
            M = pseudo_inverse_coupling(views)
        else:
            raise ValueError(f"unknown term layout {term.layout!r}")
        sides[term.side] += term.coeff * M
    return symmetrize(sides["objective"]), symmetrize(sides["constraint"])


def materialize_grads(terms, views, adjoints):
    """Per-view gradients of <bar_A, objective> + <bar_B, constraint>.

    ``adjoints`` is ``(bar_A, bar_B)``, symmetric d x d, in the order
    ``materialize`` returns the sides; with symmetric kernels the gradient of
    coeff * <G, X K X^T> with respect to X is 2 coeff G X K.
    """
    adjoint = dict(zip(SIDES, adjoints))
    offsets = np.cumsum([0] + [X.shape[0] for X in views])
    grads = [np.zeros_like(X) for X in views]
    for term in terms:
        G = adjoint[term.side]
        if term.layout == "dense":
            full = 2.0 * term.coeff * _times_kernel(G @ np.vstack(views), term.kernel)
            for s in range(len(views)):
                grads[s] += full[offsets[s]:offsets[s + 1], :]
        elif term.layout == "blockdiag":
            for s, X in enumerate(views):
                Gss = G[offsets[s]:offsets[s + 1], offsets[s]:offsets[s + 1]]
                grads[s] += 2.0 * term.coeff * _times_kernel(Gss @ X, term.kernel)
        elif term.layout == "representer":
            for s, g in enumerate(_representer_grads(views, G, term.coeff)):
                grads[s] += g
        else:
            raise ValueError(f"unknown term layout {term.layout!r}")
    return grads
