"""Synthetic multi-view data: Gaussian class clusters seen through linear maps."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import MultiViewDataset

# The class-independent nuisance latents: their number and scale.
NUISANCE_DIM = 2
NUISANCE_SCALE = 6.0


def make_toy_dataset(classes=3, views=3, samples=300, dims=None,
                     noise=0.3, separation=4.0, seed=0):
    """Sample a labeled multi-view dataset with separable class clusters.

    Latent points concatenate a class component (one scaled basis vector per
    class center plus unit isotropic scatter) with NUISANCE_DIM
    class-independent nuisance components of scale NUISANCE_SCALE that are
    shared across views.  Each view observes the latents through its own
    near-orthonormal random linear map, a random mean offset, and additive
    Gaussian noise of scale ``noise``.  The nuisance carries the strongest
    cross-view correlations while being useless for classification, so
    label-blind and label-aware methods genuinely part ways on this data.
    """
    if classes < 2:
        raise ValueError("need at least two classes")
    if views < 1:
        raise ValueError("need at least one view")
    if dims is None:
        dims = tuple([10] * views)
    dims = tuple(int(d) for d in dims)
    if len(dims) != views:
        raise ValueError(f"dims has {len(dims)} entries for {views} views")
    if min(dims) < 1:
        raise ValueError(f"every view needs at least one feature, got dims {dims}")
    if samples < 2 * classes:
        raise ValueError("need at least two samples per class")
    if noise < 0:
        raise ValueError("noise scale must be nonnegative")
    rng = np.random.default_rng(seed)
    labels = np.sort(1 + np.arange(samples) % classes).astype(np.int64)
    centers = separation * np.eye(classes)
    latents = centers[:, labels - 1] + rng.standard_normal((classes, samples))
    nuis = NUISANCE_SCALE * rng.standard_normal((NUISANCE_DIM, samples))
    latents = np.vstack([latents, nuis])
    q = latents.shape[0]
    view_list = []
    for d in dims:
        G = rng.standard_normal((max(d, q), min(d, q)))
        Q, _ = np.linalg.qr(G)
        A = Q if d >= q else Q.T
        offset = rng.standard_normal(d)
        X = A @ latents + noise * rng.standard_normal((d, samples))
        view_list.append(X + offset[:, None])
    return MultiViewDataset(tuple(view_list), labels)


def save_dataset(dataset, out_dir):
    """Write a dataset in the on-disk layout (sample-per-row CSVs)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for s, X in enumerate(dataset.views, start=1):
        np.savetxt(out / f"view_{s}.csv", X.T, delimiter=",")
    if dataset.labels is not None:
        np.savetxt(out / "labels.csv", dataset.labels[:, None], fmt="%d")
