"""Catalog of multi-view subspace methods as generalized eigenproblems.

Every method here is a pencil (objective, constraint) over the stacked views.
``method_terms`` writes each method as a list of ``scatter.KernelTerm``s and
``build`` materializes them.  The same term lists drive the analytic
gradients of the deep extension, so the linear and deep paths cannot drift
apart.

Methods (CLI spellings):

    MCCA       correlation maximization, label free
    MvOPLS     orthonormalized multi-view regression on whitened one-hots
    MvLDA      discriminant analysis of the concatenated views
    MvDA       per-view whitening with a shared mean coupling
    MvDA_VC    MvDA plus view-consistency on representer coefficients
    MvMDA      cross-view class-center spreading on raw views
    MLDA       per-view discriminant diagonal with cross-view coupling
    GMA        MLDA objective over within-class normalization
    MvDA_CCA   MvDA objective augmented with pairwise view agreement

With fewer samples than features plus classes (n - c < d_s) the within-class
scatter of each view is singular, and the MvMDA and GMA constraint
blockdiag(X_s (I - Q) X_s^T) + gamma I has c eigenvalues at gamma per view.
Their leading directions lie almost wholly in that subspace.  Measured on 3
views x 250 dims, n = 250, c = 10, gamma = 1e-4 (seeds 1 and 1000): within-class
rank 240 per view, 30 constraint eigenvalues at gamma, condition number
7.8e7-9.4e7, and the top 9 eigenvectors carry at least 98.6% (MvMDA) and
96.6% (GMA) of their constraint norm there.  MvMDA's eigenvalues (up to
7 569) are therefore about 1/gamma times its max|objective| (2.4), and its
eigen-equation residual relative to the objective reads ~1e-8 where the
other methods read 1e-9 or less.  This is a property of the problem, not of
the build or the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MultiViewDataset, build_indicator
from .framework import ModelSpec, assemble, fit_solved, pencil
from .gevd import solve
from .scatter import KernelTerm, label_kernels

METHOD_NAMES = (
    "MCCA",
    "MvOPLS",
    "MvLDA",
    "MvDA",
    "MvDA_VC",
    "MvMDA",
    "MLDA",
    "GMA",
    "MvDA_CCA",
)

SUPERVISED_METHODS = tuple(m for m in METHOD_NAMES if m != "MCCA")
LAMBDA_METHODS = ("MvDA_VC", "MLDA", "GMA", "MvDA_CCA")

_METHOD_IO = {
    "MCCA": ("centered", "identity_n"),
    "MvOPLS": ("centered", "sigma_invsqrt_onehot"),
    "MvLDA": ("centered", "sigma_invsqrt_onehot"),
    "MvDA": ("centered", "sigma_invsqrt_onehot"),
    "MvDA_VC": ("centered", "sigma_invsqrt_onehot"),
    "MvMDA": ("raw", "centered_normalized_label"),
    "MLDA": ("centered", "identity_n"),
    "GMA": ("centered", "identity_n"),
    "MvDA_CCA": ("centered", "sigma_invsqrt_onehot"),
}


@dataclass(frozen=True)
class MethodId:
    """A catalog method plus its hyperparameters."""

    name: str
    k: int
    gamma: float = 1e-4
    lam: float = 1e-2

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.name!r}; expected one of {METHOD_NAMES}"
            )
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.gamma < 0 or self.lam < 0:
            raise ValueError("gamma and lam must be nonnegative")


def method_terms(method, n, labels, v):
    """Write a method's pencil as a list of KernelTerms (gamma excluded).

    ``labels`` may be None only for MCCA, which uses one class.
    """
    name = method.name
    lam = method.lam
    if name == "MCCA":
        labels = np.ones(n, dtype=int)
    elif labels is None:
        raise ValueError(f"{name} needs labels")
    K = label_kernels(build_indicator(labels))
    H, between, within = K["centering"], K["between"], K["within"]
    if name == "MCCA":
        terms = [
            KernelTerm("objective", "dense", 1.0, H),
            KernelTerm("constraint", "blockdiag", 1.0, H),
        ]
    elif name == "MvOPLS":
        terms = [
            KernelTerm("objective", "dense", 1.0, between),
            KernelTerm("constraint", "blockdiag", 1.0, H),
        ]
    elif name == "MvLDA":
        terms = [
            KernelTerm("objective", "dense", 1.0, between),
            KernelTerm("constraint", "dense", 1.0, H),
        ]
    elif name in ("MvDA", "MvDA_VC", "MvDA_CCA"):
        terms = [
            KernelTerm("objective", "dense", 1.0, between),
            KernelTerm("constraint", "blockdiag", 1.0),
            KernelTerm("constraint", "dense", -1.0 / v, K["mean"]),
        ]
        if name == "MvDA_VC":
            terms.append(KernelTerm("constraint", "representer", lam, None))
        if name == "MvDA_CCA":
            terms.append(KernelTerm("objective", "dense", lam, H))
            terms.append(KernelTerm("objective", "blockdiag", -lam * v, H))
    elif name == "MvMDA":
        terms = [
            KernelTerm("objective", "dense", 1.0, K["center_distance"]),
            KernelTerm("constraint", "blockdiag", 1.0, within),
        ]
    elif name in ("MLDA", "GMA"):
        terms = [
            KernelTerm("objective", "dense", 1.0, H),
            KernelTerm("objective", "blockdiag", -1.0, H),
            KernelTerm("objective", "blockdiag", lam, between),
            KernelTerm("constraint", "blockdiag", 1.0, H if name == "MLDA" else within),
        ]
    else:
        raise ValueError(f"unknown method {name!r}")
    return terms


def build_from_views(method, views, labels):
    """Build a method's GevdProblem directly from view matrices."""
    views = [np.asarray(X, dtype=float) for X in views]
    terms = method_terms(method, views[0].shape[1], labels, len(views))
    return pencil(terms, views, method.k, method.gamma)


def build(method, dataset):
    """Build a method's GevdProblem from a dataset (the canonical route)."""
    return build_from_views(method, list(dataset.views), dataset.labels)


def _method_spec(method):
    transform, target = _METHOD_IO[method.name]
    mapping = {
        "MCCA": (),
        "MvOPLS": (),
        "MvLDA": (),
        "MvDA": (("mean", 1.0),),
        "MvDA_VC": (("mean", 1.0), ("representer", method.lam)),
        "MvMDA": (("hsic", 1.0),),
        "MLDA": (("lda", 1.0),),
        "GMA": (("lda", 1.0), ("hsic", 1.0)),
        "MvDA_CCA": (("mean", 1.0), ("cca", method.lam)),
    }[method.name]
    return ModelSpec(
        target_kind=target,
        k=method.k,
        gamma=method.gamma,
        lam=method.lam,
        input_transform=transform,
        regularizers=mapping,
        method=method.name,
    )


def build_via_framework(method, dataset):
    """Rebuild a method's pencil through the generic assembly.

    For MvLDA the views are first stacked into a single view, since its
    constraint couples all views densely, which the per-view assembly form
    expresses only for v = 1.  For MvMDA the generic mapping differs from the
    canonical build by a per-view mean term (the label-alignment builder
    centers its scatters, the direct MvMDA construction does not), so only
    ``build`` is authoritative there.
    """
    if method.name == "MvLDA":
        dataset = MultiViewDataset(
            (np.vstack(dataset.views),), dataset.labels, dataset.label_map
        )
    return assemble(dataset, _method_spec(method))


def fit(method, dataset):
    """Fit a catalog method: canonical build, GEVD solve, closed-form W."""
    problem = build(method, dataset)
    solution = solve(problem)
    return fit_solved(dataset, solution, _method_spec(method))
