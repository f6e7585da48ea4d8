"""Regularizer terms for the unified multi-view objective.

Each builder takes (v, kernels, lam): the number of views, the label kernels
of the pencil's one shared class indicator, and the spec's scale parameter.
It returns its penalty as ``scatter.KernelTerm``s over the raw views, signed
as they enter the pencil and all on one side: constraint terms act through
the normalization of the projections, objective terms (penalties negated)
through the coupling being maximized.  ``framework.spec_terms`` scales each
builder's terms by its weight.  The two builders that act on the views
themselves, ``cca_coupling`` and ``joint_constraint``, read the centering
kernel H_n, since every model is fitted on centred views.
"""

from __future__ import annotations

from .scatter import KernelTerm


def mean_consistency(v, kernels, lam):
    """Penalty on pairwise distances between projected view means.

    Equals (n / 2v) * sum_{s,t} ||mean of P_s^T X_s - mean of P_t^T X_t||^2
    as a quadratic form blockdiag(1 1^T / n) - dense(1 1^T / (n v)) over v
    raw (uncentered) views.
    """
    mean = kernels["mean"]
    return [
        KernelTerm("constraint", "blockdiag", 1.0, mean),
        KernelTerm("constraint", "dense", -1.0 / v, mean),
    ]


def representer_consistency(v, kernels, lam):
    """Penalty on pairwise distances between per-view representer coefficients.

    Writing P_s W = X_s beta_s with the ridge pseudo-inverse, the quadratic
    form tr(W^T P^T M P W) equals (1/2) sum_{s,t} ||beta_s - beta_t||_F^2.
    """
    return [KernelTerm("constraint", "representer", 1.0)]


def hsic_alignment(v, kernels, lam):
    """Label-alignment reward: minus the per-view between-class scatters.

    The term -blockdiag(Q - 1 1^T / n) is negative semidefinite on the
    constraint side; it loosens the normalization along directions whose
    projections align with the labels.
    """
    return [KernelTerm("constraint", "blockdiag", -1.0, kernels["between"])]


def cca_coupling(v, kernels, lam):
    """Penalty on pairwise distances between projected centred views.

    With Xc_s = X_s H the centred views, (1/2) sum_{s,t} ||P_s^T Xc_s -
    P_t^T Xc_t||_F^2 is the quadratic form v * blockdiag(H) - dense(H);
    positive semidefinite, so its terms enter the objective negated.  One
    view has no pairs, so no terms.
    """
    if v == 1:
        return []
    H = kernels["centering"]
    return [
        KernelTerm("objective", "dense", 1.0, H),
        KernelTerm("objective", "blockdiag", -float(v), H),
    ]


def joint_constraint(v, kernels, lam):
    """The cross-view blocks of the centred views' covariance.

    dense(H) - blockdiag(H) on the constraint side: added to the per-view
    constraint blockdiag(X_s H X_s^T), it gives the covariance dense(X H X^T)
    of the concatenated views.  One view has no cross-view blocks, so no
    terms.
    """
    if v == 1:
        return []
    H = kernels["centering"]
    return [
        KernelTerm("constraint", "dense", 1.0, H),
        KernelTerm("constraint", "blockdiag", -1.0, H),
    ]


def lda_per_view(v, kernels, lam):
    """Per-view discriminant shaping added to the objective.

    -blockdiag(X_s R X_s^T) with R = H_n - lam * (Q - (1/n) 1 1^T): each view
    trades its total covariance against lam times its between-class scatter.
    """
    return [
        KernelTerm("objective", "blockdiag", -1.0, kernels["centering"]),
        KernelTerm("objective", "blockdiag", lam, kernels["between"]),
    ]


# Regularizer id -> builder; the two that read the labels.
REGULARIZERS = {
    "mean": mean_consistency,
    "representer": representer_consistency,
    "hsic": hsic_alignment,
    "cca": cca_coupling,
    "lda": lda_per_view,
    "joint": joint_constraint,
}
LABELED_REGULARIZERS = ("hsic", "lda")
