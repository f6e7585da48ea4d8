"""Unified assembly of multi-view subspace models.

A ModelSpec names an input transform, a target kind, a list of weighted
regularizers, and the hyperparameters (k, gamma, lam).  ``assemble`` turns it
into a generalized eigenproblem

    maximize  tr(P^T (Xt Yt^T Yt Xt^T - B) P)
    subject to  P^T (C_diag + A) P = I_k

over the stacked transformed views Xt, where A collects constraint-side
regularizers (always including the Tikhonov ridge) and B the objective-side
ones.  ``fit`` solves it and recovers the regression weights in closed form,
W = P^T Xt Yt^T, which is exact because the constraint makes the whitened
Gram the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import regularizers as reg
from .data import (
    MultiViewDataset,
    TARGET_KINDS,
    build_indicator,
    center_columns,
    make_target,
)
from .gevd import GevdProblem, solve
from .scatter import KernelTerm, materialize, symmetrize

INPUT_TRANSFORMS = ("centered", "raw")
SUPERVISED_KINDS = tuple(k for k in TARGET_KINDS if k != "identity_n")

# Regularizer id -> builder(raw_views, transformed_views, indicator, lam).
REGULARIZERS = {
    "mean": lambda raw, tviews, ind, lam: reg.mean_consistency(raw),
    "representer": lambda raw, tviews, ind, lam: reg.representer_consistency(raw),
    "hsic": lambda raw, tviews, ind, lam: reg.hsic_alignment(raw, ind),
    "cca": lambda raw, tviews, ind, lam: reg.cca_coupling(tviews),
    "lda": lambda raw, tviews, ind, lam: reg.lda_per_view(raw, ind, lam),
}


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for one subspace model.

    regularizers is a tuple of (builder id, weight) pairs; the Tikhonov ridge
    is always applied through ``gamma`` and is not listed.  ``lam`` is the
    scale parameter consumed by builders that need one (the per-view LDA
    kernel) and recorded for methods that use it.  ``method`` records which
    catalog method produced this recipe, if any.
    """

    target_kind: str
    k: int
    gamma: float = 1e-4
    lam: float = 1e-2
    input_transform: str = "centered"
    regularizers: tuple = ()
    method: str | None = None

    def __post_init__(self):
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        if self.input_transform not in INPUT_TRANSFORMS:
            raise ValueError(f"unknown input transform {self.input_transform!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        for rid, w in self.regularizers:
            if rid not in REGULARIZERS:
                raise ValueError(f"unknown regularizer builder {rid!r}")
            if w < 0:
                raise ValueError(f"regularizer weight for {rid!r} must be nonnegative")


@dataclass(frozen=True)
class SubspaceModel:
    """A fitted model: per-view projections, weights, and training statistics."""

    projections: tuple  # per view, d_s x k
    W: np.ndarray  # k x o
    means: tuple  # per view, (d_s,) training means of the raw views
    eigenvalues: np.ndarray
    spec: ModelSpec

    @property
    def dims(self):
        return tuple(P.shape[0] for P in self.projections)

    @property
    def k(self):
        return self.projections[0].shape[1]


def _transform_views(views, input_transform):
    if input_transform == "centered":
        return [center_columns(X) for X in views]
    return [np.asarray(X, dtype=float) for X in views]


def _views_times_target(dataset, tviews, target_kind):
    """Xt T^T (d x o) over the stacked views; Xt itself for identity_n."""
    stacked = np.vstack(tviews)
    if target_kind == "identity_n":
        return stacked
    return stacked @ make_target(dataset, target_kind).values.T


@np.errstate(over="ignore", invalid="ignore")  # as in scatter.materialize
def assemble(dataset, spec):
    """Materialize the eigenproblem a ModelSpec describes on a dataset."""
    raw_views = list(dataset.views)
    tviews = _transform_views(raw_views, spec.input_transform)
    indicator = build_indicator(dataset.labels) if dataset.labels is not None else None

    # G G^T rather than a dense n x n target kernel: X T^T costs O(n d o).
    G = _views_times_target(dataset, tviews, spec.target_kind)
    objective = G @ G.T
    _, constraint = materialize([KernelTerm("constraint", "blockdiag", 1.0)], tviews)
    constraint[np.diag_indices_from(constraint)] += spec.gamma
    objective_regularized = False
    for rid, w in spec.regularizers:
        term = REGULARIZERS[rid](raw_views, tviews, indicator, spec.lam)
        objective -= w * term.objective_sub
        constraint += w * term.constraint_add
        objective_regularized |= bool(term.objective_sub.any())
    # The objective G G^T has rank <= o; an o x o identity is worth forming
    # only when that is below d.
    o = G.shape[1]
    factor = None if objective_regularized or o >= G.shape[0] else (G, np.eye(o))
    return GevdProblem(symmetrize(objective), symmetrize(constraint), spec.k, factor)


def fit_solved(dataset, solution, spec):
    """Package a GEVD solution into a SubspaceModel (shared fitting tail)."""
    dims = dataset.dims
    offsets = np.cumsum((0,) + dims)
    projections = tuple(
        solution.P[offsets[s]:offsets[s + 1], :] for s in range(dataset.n_views)
    )
    tviews = _transform_views(list(dataset.views), spec.input_transform)
    W = solution.P.T @ _views_times_target(dataset, tviews, spec.target_kind)
    means = tuple(X.mean(axis=1) for X in dataset.views)
    return SubspaceModel(
        projections=projections,
        W=W,
        means=means,
        eigenvalues=solution.eigenvalues.copy(),
        spec=spec,
    )


def fit(dataset, spec):
    """Assemble, solve, and package a model for a ModelSpec."""
    problem = assemble(dataset, spec)
    solution = solve(problem)
    return fit_solved(dataset, solution, spec)


def embed(model, dataset):
    """Project a dataset into the learned subspace.

    Views are centered with the *training* means when the model was fitted on
    centered views, so held-out data lands in the same frame.  Returns the
    per-view k x n embeddings and their (v k) x n vertical stack.
    """
    if dataset.dims != model.dims:
        raise ValueError(
            f"dataset dims {dataset.dims} do not match model dims {model.dims}"
        )
    per_view = []
    for P, mu, X in zip(model.projections, model.means, dataset.views):
        if model.spec.input_transform == "centered":
            X = X - mu[:, None]
        per_view.append(P.T @ X)
    return per_view, np.vstack(per_view)


def decision_values(model, dataset, view=0):
    """Class scores W^T P_s^T (X_s - mu_s 1^T) for one view.

    Only defined for supervised target kinds, where the rows of the result
    are aligned with classes 1..c.
    """
    if model.spec.target_kind not in SUPERVISED_KINDS:
        raise ValueError(
            f"decision values need a supervised target kind, got "
            f"{model.spec.target_kind!r}"
        )
    if not 0 <= view < len(model.projections):
        raise ValueError(f"view index {view} out of range")
    X = dataset.views[view]
    if X.shape[0] != model.dims[view]:
        raise ValueError(
            f"view {view} has dimension {X.shape[0]}, model expects "
            f"{model.dims[view]}"
        )
    Xc = X - model.means[view][:, None]
    return model.W.T @ (model.projections[view].T @ Xc)


def predict(model, dataset, view=0):
    """Argmax class labels from the decision values of one view."""
    scores = decision_values(model, dataset, view)
    return np.argmax(scores, axis=0) + 1


def save_model(model, out_dir):
    """Write projections and weights as CSV plus a JSON metadata file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s, P in enumerate(model.projections, start=1):
        np.savetxt(out / f"P_{s}.csv", P, delimiter=",")
    np.savetxt(out / "W.csv", model.W, delimiter=",")
    meta = {
        "k": int(model.k),
        "gamma": float(model.spec.gamma),
        "lam": float(model.spec.lam),
        "target_kind": model.spec.target_kind,
        "input_transform": model.spec.input_transform,
        "regularizers": [[rid, float(w)] for rid, w in model.spec.regularizers],
        "method": model.spec.method,
        "dims": [int(d) for d in model.dims],
        "means": [mu.tolist() for mu in model.means],
        "eigenvalues": model.eigenvalues.tolist(),
    }
    tmp = out / "meta.json.tmp"
    tmp.write_text(json.dumps(meta, indent=2))
    tmp.replace(out / "meta.json")


def load_model(model_dir):
    """Rebuild a SubspaceModel saved by ``save_model``."""
    root = Path(model_dir)
    meta = json.loads((root / "meta.json").read_text())
    spec = ModelSpec(
        target_kind=meta["target_kind"],
        k=int(meta["k"]),
        gamma=float(meta["gamma"]),
        lam=float(meta["lam"]),
        input_transform=meta["input_transform"],
        regularizers=tuple((rid, float(w)) for rid, w in meta["regularizers"]),
        method=meta.get("method"),
    )
    projections = []
    for s in range(1, len(meta["dims"]) + 1):
        P = np.loadtxt(root / f"P_{s}.csv", delimiter=",", ndmin=2)
        projections.append(P)
    W = np.loadtxt(root / "W.csv", delimiter=",", ndmin=2)
    means = tuple(np.asarray(mu, dtype=float) for mu in meta["means"])
    return SubspaceModel(
        projections=tuple(projections),
        W=W,
        means=means,
        eigenvalues=np.asarray(meta["eigenvalues"], dtype=float),
        spec=spec,
    )
