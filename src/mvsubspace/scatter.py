"""Label kernels and the term algebra of multi-view pencils.

Every pencil side in the package is a sum of KernelTerms over factored
LabelKernels; ``materialize`` turns such a sum into dense matrices and
``materialize_grads`` pushes pencil adjoints back onto the views.  Every
matrix produced here is explicitly symmetrized, so downstream eigensolvers
never see asymmetry beyond exact floating-point roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def symmetrize(M):
    S = M + M.T
    S *= 0.5
    return S


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
        return self.eye * Z + ((Z @ self.Y.T) @ self.M) @ self.Y


def label_kernels(indicator):
    """Every label kernel of the package, by name.

    With Sigma = Y Y^T, Q = Y^T Sigma^-1 Y and 1 1^T = Y^T 1_c 1_c^T Y:
    centering H_n = I - 1 1^T / n, between Q - 1 1^T / n, within I - Q (so
    between + within = centering), mean 1 1^T / n, and center_distance
    Y^T Sigma^-1 H_c Sigma^-1 Y, which spreads the class means of two views
    around their average.  The one-class indicator gives the plain H_n.
    """
    Y, c = indicator.Y, indicator.n_classes
    inv = np.diag(1.0 / indicator.counts)
    ones = np.full((c, c), 1.0 / Y.shape[1])
    Hc = np.eye(c) - 1.0 / c
    return {
        "centering": LabelKernel(1.0, Y, -ones),
        "between": LabelKernel(0.0, Y, inv - ones),
        "within": LabelKernel(1.0, Y, -inv),
        "mean": LabelKernel(0.0, Y, ones),
        "center_distance": LabelKernel(0.0, Y, inv @ Hc @ inv),
    }


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
    G = X @ X.T if rows else X.T @ X
    eps = 1e-10 * np.trace(G) / d
    try:
        inverse = np.linalg.inv(symmetrize(G + eps * np.eye(G.shape[0])))
    except np.linalg.LinAlgError:
        raise ValueError(
            f"view {view_index + 1}: the Gram of X is singular even after jitter"
        ) from None
    inverse = symmetrize(inverse)
    return (inverse @ X if rows else X @ inverse), inverse, rows


def pseudo_inverse_coupling(views):
    """Dense coupling M built from ridge-regularized pseudo-inverses.

    With F_s = X_s (X_s^T X_s + eps I)^-1, block (s, t) of M is
    (v - 1) F_s F_s^T on the diagonal and -F_s F_t^T off it, so that
    tr(W^T P^T M P W) sums the pairwise squared differences of the per-view
    representer coefficients.
    """
    v = len(views)
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
    offsets = np.cumsum([0] + [Z.shape[0] for Z in views])
    pinvs = [_ridge_pinv(Z, s) for s, Z in enumerate(views)]
    Fs = [F for F, _, _ in pinvs]
    grads = []
    for u, (Z, (F, inverse, rows)) in enumerate(zip(views, pinvs)):
        Gu = [
            G[offsets[u]:offsets[u + 1], offsets[w]:offsets[w + 1]]
            for w in range(v)
        ]
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


def _times_kernel(M, kernel):
    return M if kernel is None else kernel.apply(M)


# Finite views can overflow a side; GevdProblem rejects it, so do not warn.
@np.errstate(over="ignore", invalid="ignore")
def materialize(terms, views):
    """Sum KernelTerms on the given views into ``(objective, constraint)``."""
    stacked = np.vstack(views)
    d = stacked.shape[0]
    offsets = np.cumsum([0] + [X.shape[0] for X in views])
    everything = slice(None)
    sides = {side: np.zeros((d, d)) for side in SIDES}
    for term in terms:
        if term.layout == "dense":
            parts = [(everything, _times_kernel(stacked, term.kernel) @ stacked.T)]
        elif term.layout == "blockdiag":
            parts = [
                (slice(offsets[s], offsets[s + 1]), _times_kernel(X, term.kernel) @ X.T)
                for s, X in enumerate(views)
            ]
        elif term.layout == "representer":
            parts = [(everything, pseudo_inverse_coupling(views))]
        else:
            raise ValueError(f"unknown term layout {term.layout!r}")
        # Each product is fresh: scale it and add it in place, with no copy.
        for block, M in parts:
            M *= term.coeff
            sides[term.side][block, block] += M
    return symmetrize(sides["objective"]), symmetrize(sides["constraint"])


def objective_factor(terms, views):
    """(S, M) with the materialized objective equal to S M S^T, or None.

    Defined when the objective is one dense term over a kernel Y^T K Y with
    eye = 0: then S = X Y^T over the stacked views (d x c, the per-class
    sums) and M = coeff * K, so the objective has rank at most c.
    """
    objective = [term for term in terms if term.side == "objective"]
    if len(objective) != 1:
        return None
    (term,) = objective
    kernel = term.kernel
    if term.layout != "dense" or kernel is None or kernel.eye != 0:
        return None
    return np.vstack([X @ kernel.Y.T for X in views]), term.coeff * kernel.M


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
