"""Unified assembly of multi-view subspace models.

Every model is fitted on centred views.  A ModelSpec names a target kind, a
list of weighted regularizers, and the hyperparameters (k, gamma, lam).
``spec_terms`` writes it as one list of ``scatter.KernelTerm``s over the raw
views X, with H = H_n the centering kernel and every label kernel on one
shared class indicator: the target term dense(X H T^T T H X^T) through the
kernel ``TARGET_KERNELS`` names, the constraint term blockdiag(X_s H X_s^T)
and each regularizer's terms, from its ``regularizers.REGULARIZERS`` builder,
scaled by its weight.  The indicator is that of the labels when the spec
reads labels (a supervised target kind or a labelled regularizer) and the
one-class indicator otherwise.  ``pencil`` materializes the terms in one call
and adds the Tikhonov ridge gamma I to the constraint; ``methods.build`` is
the two together, and the deep extension takes its gradient terms from the
same list.  ``methods.fit`` computes one ``scatter.ClassStatistics`` of
the terms, and both ``pencil`` and ``fit_solved`` read it; ``deep.train``
packages its model from its last epoch's statistics.

``fit_solved`` packages a solution and recovers the regression weights in
closed form, W = P^T X H T^T, which is exact because the constraint makes
the whitened Gram the identity.  Every supervised target is T = G Y with the
c x c G of ``data.TARGET_MIXES``, so X H T^T = (X H Y^T) G^T = S G^T with
the centred class sums S = (X - mu 1^T) Y^T of the statistics, and
W = (P^T S) G^T is the same W in exact arithmetic: a k x d x c product in
place of a pass over the n samples.  S is summed from the mean-centred copy
of the views, so a large view mean does not cancel in W.  For identity_n
(T = I) W = P^T X H = P^T X_c, and X_c = X_w + (S Sigma^-1) Y adds each
sample's class mean back to the statistics' class-centred copy X_w, so
W = P^T X_w + (P^T S Sigma^-1) Y: one k x d x n product on that C-ordered
copy and a k x c scatter over the classes, no centred copy of any view;
with one class it is P^T X_w alone.  X_w is taken from the mean-centred
copy too.  The means mu_s are the statistics' mean, one owned contiguous
copy per view, so no fit reduces the views twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import TARGET_KINDS, TARGET_MIXES, _read_matrix, _write_text, build_indicator
from .gevd import GevdProblem
from .regularizers import LABELED_REGULARIZERS, REGULARIZERS
from .scatter import KernelTerm, label_kernels, materialize

SUPERVISED_KINDS = tuple(k for k in TARGET_KINDS if k != "identity_n")

# Target kind -> the ``label_kernels`` name of H T^T T H for the target T of
# ``data.make_target`` (T H = T for the centred kinds).
TARGET_KERNELS = {
    "identity_n": "centering",
    "sigma_invsqrt_onehot": "between",
    "centered_normalized_label": "center_distance",
    "centered_onehot": "centered_onehot",
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
    regularizers: tuple = ()
    method: str | None = None

    def __post_init__(self):
        if self.target_kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.target_kind!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        weights = [("gamma", self.gamma), ("lam", self.lam)]
        for rid, w in self.regularizers:
            if rid not in REGULARIZERS:
                raise ValueError(f"unknown regularizer builder {rid!r}")
            weights.append((f"regularizer weight for {rid!r}", w))
        for name, value in weights:
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


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


def pencil(terms, statistics, k, gamma):
    """The GevdProblem of KernelTerms on the views of a
    ``scatter.ClassStatistics``: one ``scatter.materialize`` call plus
    gamma I on the constraint, added to each of its diagonal blocks (its
    low-rank term, if any, kept as it is)."""
    objective, constraint, factor = materialize(terms, statistics)
    for B in constraint.blocks:
        B[np.diag_indices_from(B)] += gamma
    return GevdProblem(objective, constraint, k, factor)


def label_readers(spec):
    """The parts of a spec that read the labels, at any weight: its target
    kind if supervised and its labelled regularizers."""
    names = (spec.target_kind, *(rid for rid, _ in spec.regularizers))
    return [name for name in names if name in SUPERVISED_KINDS + LABELED_REGULARIZERS]


def spec_terms(spec, labels, n, v):
    """The KernelTerms of a ModelSpec on n samples of v views (gamma excluded).

    ``labels`` may be None when the spec does not read them; ValueError
    otherwise.
    """
    readers = label_readers(spec)
    if not readers:
        labels = np.ones(n, dtype=int)
    elif labels is None:
        raise ValueError(f"{readers[0]} needs labels")
    indicator = build_indicator(labels)
    K = label_kernels(indicator)
    terms = [
        KernelTerm("objective", "dense", 1.0, K[TARGET_KERNELS[spec.target_kind]]),
        KernelTerm("constraint", "blockdiag", 1.0, K["centering"]),
    ]
    for rid, w in spec.regularizers:
        if w:
            built = REGULARIZERS[rid](v, K, spec.lam)
            terms += [replace(term, coeff=w * term.coeff) for term in built]
    return terms


def fit_solved(statistics, solution, spec):
    """Package a GEVD solution into a SubspaceModel (shared fitting tail):
    the means and W come from the fit's ``scatter.ClassStatistics`` (module
    docstring)."""
    P = solution.P
    projections = tuple(P[b, :] for b in statistics.blocks)
    means = tuple(statistics.mu[b].copy() for b in statistics.blocks)
    if spec.target_kind == "identity_n":
        W = P.T @ statistics.X_w
        if len(statistics.counts) > 1:
            W += ((P.T @ statistics.S) / statistics.counts) @ statistics.Y
    else:
        G = TARGET_MIXES[spec.target_kind](statistics.counts)
        W = (P.T @ statistics.S) @ G.T
    return SubspaceModel(
        projections=projections,
        W=W,
        means=means,
        eigenvalues=solution.eigenvalues.copy(),
        spec=spec,
    )


def embed(model, dataset):
    """Project a dataset into the learned subspace.

    Views are centered with the *training* means, so held-out data lands in
    the same frame.  Returns the per-view k x n embeddings and their (v k) x n
    vertical stack.
    """
    if dataset.dims != model.dims:
        raise ValueError(
            f"dataset dims {dataset.dims} do not match model dims {model.dims}"
        )
    per_view = [
        P.T @ (X - mu[:, None])
        for P, mu, X in zip(model.projections, model.means, dataset.views)
    ]
    return per_view, np.vstack(per_view)


def predict(model, dataset):
    """Argmax class labels of W^T z on the summed latent point
    z = sum_s P_s^T (X_s - mu_s 1^T), the point W is fitted on.

    Only defined for supervised target kinds, where the rows of W^T z are
    aligned with classes 1..c.
    """
    if model.spec.target_kind not in SUPERVISED_KINDS:
        raise ValueError(
            f"predict needs a supervised target kind, got {model.spec.target_kind!r}"
        )
    per_view, _ = embed(model, dataset)
    return np.argmax(model.W.T @ sum(per_view), axis=0) + 1


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
        "regularizers": [[rid, float(w)] for rid, w in model.spec.regularizers],
        "method": model.spec.method,
        "dims": [int(d) for d in model.dims],
        "means": [mu.tolist() for mu in model.means],
        "eigenvalues": model.eigenvalues.tolist(),
    }
    _write_text(out / "meta.json", json.dumps(meta, indent=2))


def load_model(model_dir):
    """Rebuild a SubspaceModel saved by ``save_model``.

    Older files record ``"input_transform": "centered"``; a model fitted on
    any other transform cannot be represented and raises ValueError.
    """
    root = Path(model_dir)
    meta = json.loads((root / "meta.json").read_text())
    if meta.get("input_transform", "centered") != "centered":
        raise ValueError(f"unsupported input transform {meta['input_transform']!r}")
    spec = ModelSpec(
        target_kind=meta["target_kind"],
        k=int(meta["k"]),
        gamma=float(meta["gamma"]),
        lam=float(meta["lam"]),
        regularizers=tuple((rid, float(w)) for rid, w in meta["regularizers"]),
        method=meta.get("method"),
    )
    projections = tuple(
        _read_matrix(root / f"P_{s}.csv", (d, spec.k))
        for s, d in enumerate(meta["dims"], start=1)
    )
    W = _read_matrix(root / "W.csv", (spec.k, None))
    try:
        means = tuple(np.asarray(mu, dtype=float) for mu in meta["means"])
    except (TypeError, ValueError):
        means = ()
    if [mu.shape for mu in means] != [(d,) for d in meta["dims"]] or not all(
        np.isfinite(mu).all() for mu in means
    ):
        raise ValueError(
            f"meta.json: means must hold one finite vector of length d_s per "
            f"view, dims {meta['dims']}"
        )
    return SubspaceModel(
        projections=projections,
        W=W,
        means=means,
        eigenvalues=np.asarray(meta["eigenvalues"], dtype=float),
        spec=spec,
    )
