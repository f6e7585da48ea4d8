"""Evaluation protocol: linear classification, 1-NN, and cross-modal retrieval.

Embeddings follow the package convention of one sample per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearClassifier:
    """One-vs-rest ridge regression onto +/-1 targets."""

    W: np.ndarray  # D x c
    b: np.ndarray  # (c,)


def train_linear_classifier(Z, labels, ridge=1e-4):
    """Fit the one-vs-rest ridge classifier on columns of Z."""
    Z = np.asarray(Z, dtype=float)
    labels = np.asarray(labels)
    c = int(labels.max())
    n = Z.shape[1]
    T = -np.ones((c, n))
    T[labels - 1, np.arange(n)] = 1.0
    z_mean = Z.mean(axis=1, keepdims=True)
    t_mean = T.mean(axis=1, keepdims=True)
    Zc = Z - z_mean
    Tc = T - t_mean
    A = Zc @ Zc.T + ridge * np.eye(Z.shape[0])
    W = np.linalg.solve(A, Zc @ Tc.T)
    b = t_mean[:, 0] - W.T @ z_mean[:, 0]
    return LinearClassifier(W=W, b=b)


def classify(clf, Z):
    """Argmax class labels for columns of Z."""
    scores = clf.W.T @ np.asarray(Z, dtype=float) + clf.b[:, None]
    return np.argmax(scores, axis=0) + 1


# Each query block's q x g x d difference tensor stays within this many bytes,
# so 1-NN and retrieval take memory linear in the gallery size.
_BLOCK_BYTES = 1 << 20


def _query_blocks(Z_query, Z_gallery):
    """Yield ``(rows, d2)``: squared distances from a slice of queries to
    every gallery column, one slice at a time."""
    Q = np.asarray(Z_query, dtype=float).T
    G = np.asarray(Z_gallery, dtype=float).T
    step = max(1, _BLOCK_BYTES // max(1, G.size * G.itemsize))
    for start in range(0, Q.shape[0], step):
        rows = slice(start, start + step)
        diffs = Q[rows, None, :] - G[None, :, :]
        yield rows, np.einsum("qgd,qgd->qg", diffs, diffs)


def knn1_classify(Z_train, labels_train, Z_test):
    """Nearest-neighbor labels under Euclidean distance.

    Distance ties are broken toward the lowest training index.
    """
    nearest = np.empty(np.shape(Z_test)[1], dtype=np.intp)
    for rows, d2 in _query_blocks(Z_test, Z_train):
        nearest[rows] = np.argmin(d2, axis=1)
    return np.asarray(labels_train)[nearest]


def accuracy(predicted, actual):
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("prediction and label arrays must have the same shape")
    return float(np.mean(predicted == actual))


def average_precision(relevance):
    """AP of a ranked relevance list: mean of precision-at-k over relevant ranks.

    Returns 0.0 when nothing in the list is relevant.
    """
    # Accumulate in extended precision: the precision ratios are inexact in
    # binary, and plain float64 sums can land one ulp off the true AP.
    rel = np.asarray(relevance, dtype=np.longdouble)
    if rel.ndim != 1:
        raise ValueError("relevance must be a one-dimensional list")
    total = rel.sum()
    if total == 0:
        return 0.0
    precision_at = np.cumsum(rel) / np.arange(1, rel.size + 1, dtype=np.longdouble)
    return float((precision_at * rel).sum() / total)


@dataclass(frozen=True)
class RetrievalResult:
    """Cross-modal retrieval scores for both directions and their mean."""

    ap_ab: np.ndarray  # per query of view a, galleries from view b
    ap_ba: np.ndarray
    map_ab: float
    map_ba: float
    map_mean: float


def _direction_aps(Z_query, labels_query, Z_gallery, labels_gallery):
    labels_query = np.asarray(labels_query)
    labels_gallery = np.asarray(labels_gallery)
    positions = np.arange(1, np.shape(Z_gallery)[1] + 1, dtype=np.longdouble)
    aps = np.empty(np.shape(Z_query)[1])
    for rows, d2 in _query_blocks(Z_query, Z_gallery):
        order = np.argsort(d2, axis=1, kind="stable")
        ranked_labels = labels_gallery[order]
        rel = (ranked_labels == labels_query[rows, None]).astype(np.longdouble)
        totals = rel.sum(axis=1)
        precision_at = np.cumsum(rel, axis=1) / positions
        sums = (precision_at * rel).sum(axis=1)
        aps[rows] = np.where(totals > 0, sums / np.maximum(totals, 1.0), 0.0)
    return aps


def cross_modal_retrieve(Z_a, labels_a, Z_b, labels_b):
    """Rank the full gallery of the other view for every query.

    Rankings use Euclidean distance with ties broken toward the lowest
    gallery index.  Returns per-query APs, the two directional mAPs, and
    their mean.
    """
    ap_ab = _direction_aps(Z_a, labels_a, Z_b, labels_b)
    ap_ba = _direction_aps(Z_b, labels_b, Z_a, labels_a)
    map_ab = float(ap_ab.mean())
    map_ba = float(ap_ba.mean())
    return RetrievalResult(
        ap_ab=ap_ab,
        ap_ba=ap_ba,
        map_ab=map_ab,
        map_ba=map_ba,
        map_mean=0.5 * (map_ab + map_ba),
    )
