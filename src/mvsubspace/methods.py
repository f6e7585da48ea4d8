"""Catalog of multi-view subspace methods as ModelSpecs.

Every method here is one row of ``_CATALOG``: the target kind and weighted
regularizers of a ``framework.ModelSpec``, with "lam" standing for the
method's own lam; like every spec, it is fitted on centred views.
``MethodId(name, k, gamma, lam)`` returns that row's spec, with the name in
``spec.method``; there is no other model type.  ``build`` and ``fit`` take
any spec and materialize its ``framework.spec_terms`` through
``framework.pencil``, and the deep extension trains on the same terms, so the
linear and deep paths cannot drift apart.

Methods (CLI spellings):

    MCCA       correlation maximization, label free
    MvOPLS     orthonormalized multi-view regression on whitened one-hots
    MvLDA      discriminant analysis of the concatenated views (joint constraint)
    MvDA       per-view whitening with a shared mean coupling
    MvDA_VC    MvDA plus view-consistency on representer coefficients
    MvMDA      cross-view class-center spreading over within-class normalization
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

from .framework import ModelSpec, fit_solved, pencil, spec_terms
from .gevd import solve
from .scatter import ClassStatistics

# name -> (target kind, ((regularizer id, weight), ...)).
_CATALOG = {
    "MCCA": ("identity_n", ()),
    "MvOPLS": ("sigma_invsqrt_onehot", ()),
    "MvLDA": ("sigma_invsqrt_onehot", (("joint", 1.0),)),
    "MvDA": ("sigma_invsqrt_onehot", (("mean", 1.0),)),
    "MvDA_VC": ("sigma_invsqrt_onehot", (("mean", 1.0), ("representer", "lam"))),
    "MvMDA": ("centered_normalized_label", (("hsic", 1.0),)),
    "MLDA": ("identity_n", (("lda", 1.0),)),
    "GMA": ("identity_n", (("lda", 1.0), ("hsic", 1.0))),
    "MvDA_CCA": ("sigma_invsqrt_onehot", (("mean", 1.0), ("cca", "lam"))),
}

METHOD_NAMES = tuple(_CATALOG)


def MethodId(name, k, gamma=1e-4, lam=1e-2):
    """The ModelSpec of catalog method ``name`` with these hyperparameters."""
    if name not in _CATALOG:
        raise ValueError(
            f"unknown method {name!r}; expected one of {', '.join(METHOD_NAMES)}"
        )
    target, regularizers = _CATALOG[name]
    return ModelSpec(
        target_kind=target,
        k=k,
        gamma=gamma,
        lam=lam,
        regularizers=tuple((rid, lam if w == "lam" else w) for rid, w in regularizers),
        method=name,
    )


def build(spec, dataset, terms=None, statistics=None):
    """Build a ModelSpec's GevdProblem from a dataset.

    ``terms`` and ``statistics`` are the spec's ``spec_terms`` and their
    ``scatter.ClassStatistics`` on the dataset's views, when the caller
    already has them.  A pencil with an objective factor or a
    ``scatter.SampleObjective`` is defined by it: its ``objective`` is formed
    on first read, the same array as without it, and ``fit``'s solve never
    reads it.  The constraint is kept as its diagonal blocks, one per view
    or one d x d block, with MvDA's, MvDA_CCA's and MvDA_VC's mean term as
    its low-rank factor, and ``constraint`` forms the d x d array on each
    read.
    """
    if terms is None:
        terms = spec_terms(spec, dataset.labels, dataset.n_samples, dataset.n_views)
    if statistics is None:
        statistics = ClassStatistics.of(terms, dataset.views)
    return pencil(terms, statistics, spec.k, spec.gamma)


def fit(spec, dataset):
    """Fit a ModelSpec: one ClassStatistics of its terms, read by both the
    build and the closed-form W, and a GEVD solve in between."""
    terms = spec_terms(spec, dataset.labels, dataset.n_samples, dataset.n_views)
    statistics = ClassStatistics.of(terms, dataset.views)
    problem = build(spec, dataset, terms, statistics)
    solution = solve(problem)
    return fit_solved(statistics, solution, spec)
