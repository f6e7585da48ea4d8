"""Regularizer terms for the unified multi-view objective.

Each builder writes its penalty as ``scatter.KernelTerm``s and materializes
them into a RegularizerTerm holding two symmetric d x d matrices, where d is
the stacked dimension over views.  ``constraint_add`` is added to the
constraint side of the eigenproblem (these penalties act through the
normalization of the projections), ``objective_sub`` is subtracted from the
objective side (these act through the coupling being maximized).  Exactly one
of the two is nonzero for every builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import centering_matrix
from .scatter import KernelTerm, materialize


@dataclass(frozen=True)
class RegularizerTerm:
    constraint_add: np.ndarray
    objective_sub: np.ndarray


def _materialized(terms, views):
    objective, constraint = materialize(terms, views)
    return RegularizerTerm(constraint_add=constraint, objective_sub=-objective)


def mean_consistency(views):
    """Penalty on pairwise distances between projected view means.

    Equals (n / 2v) * sum_{s,t} ||mean of P_s^T X_s - mean of P_t^T X_t||^2
    as a quadratic form blockdiag(1 1^T / n) - dense(1 1^T / (n v)),
    assembled from the raw (uncentered) views.
    """
    n = views[0].shape[1]
    ones = np.ones((n, n))
    return _materialized([
        KernelTerm("constraint", "blockdiag", 1.0 / n, ones),
        KernelTerm("constraint", "dense", -1.0 / (n * len(views)), ones),
    ], views)


def representer_consistency(views):
    """Penalty on pairwise distances between per-view representer coefficients.

    Writing P_s W = X_s beta_s with the ridge pseudo-inverse, the quadratic
    form tr(W^T P^T M P W) equals (1/2) sum_{s,t} ||beta_s - beta_t||_F^2.
    """
    return _materialized([KernelTerm("constraint", "representer", 1.0)], views)


def hsic_alignment(views, indicator):
    """Label-alignment reward: minus the per-view between-class scatters.

    The term -blockdiag(Q - 1 1^T / n) is negative semidefinite on the
    constraint side; it loosens the normalization along directions whose
    projections align with the labels.
    """
    if indicator is None:
        raise ValueError("hsic regularizer needs labels")
    n = views[0].shape[1]
    return _materialized(
        [KernelTerm("constraint", "blockdiag", -1.0, indicator.Q - 1.0 / n)], views
    )


def cca_coupling(transformed_views):
    """Penalty on pairwise distances between projected views.

    (1/2) sum_{s,t} ||P_s^T Xt_s - P_t^T Xt_t||_F^2 as a quadratic form
    v * blockdiag(I) - dense(I) over the transformed views; positive
    semidefinite, and subtracted from the objective side.
    """
    v = len(transformed_views)
    return _materialized([
        KernelTerm("objective", "dense", 1.0),
        KernelTerm("objective", "blockdiag", -float(v)),
    ], transformed_views)


def lda_per_view(views, indicator, lam):
    """Per-view discriminant shaping subtracted from the objective.

    blockdiag(X_s R X_s^T) with R = H_n - lam * (Q - (1/n) 1 1^T): each view
    trades its total covariance against lam times its between-class scatter.
    """
    if lam < 0:
        raise ValueError("lda_per_view lam must be nonnegative")
    if indicator is None:
        raise ValueError("lda regularizer needs labels")
    n = views[0].shape[1]
    R = centering_matrix(n) - lam * (indicator.Q - 1.0 / n)
    return _materialized([KernelTerm("objective", "blockdiag", -1.0, R)], views)
