"""Evaluation protocol: linear classification, 1-NN, and cross-modal retrieval.

Embeddings follow the package convention of one sample per column, and must
be finite.

Every ranking is defined by the direct squared distance
d2(q, g) = sum_k (q_k - g_k)^2, summed in ascending k with every operation
rounded whatever the memory layout of the input, and ties go to the lowest
gallery index.  The fast paths below return exactly the answers of that
definition, not approximations of them.

1-NN screens with GEMM.  Per query q it forms s(g) = ||g||^2 - 2 q^T g, which
is d2(q, g) - ||q||^2 in exact arithmetic, keeps every g with
s(g) <= min_h s(h) + 2 tol, recomputes only those with the direct formula and
takes their argmin; the others read +inf.  The reference winner g* is always
kept, so the answer is the same bit for bit.  Proof, with u = eps/2 the unit
roundoff, gamma_n = n u / (1 - n u), d the dimension and
N = ||q||^2 + ||g||^2:

* direct formula: each term fl(fl(q_k - g_k)^2) carries at most gamma_3
  relative error and summing d nonnegative terms, in any order, adds
  gamma_(d-1), so |d2^ - d2| <= gamma_(d+2) d2 <= 2 gamma_(d+2) N, as
  d2 <= 2N;
* screen: ||g||^2 is computed to gamma_d ||g||^2; the GEMM dot product, in
  whatever order and with or without FMA, to gamma_d sum_k |q_k g_k|
  <= gamma_d N / 2; the final addition rounds a value of size at most
  2N (1 + gamma_d) once; so |s^ - s| <= 2 gamma_(d+1) N.

Both errors together are at most e(g) = 4 gamma_(d+2) N.  With h the screen's
minimiser, s^(g*) <= d2(g*) - ||q||^2 + e(g*) <= d2(h) - ||q||^2 + e(g*) + e(h)
<= s^(h) + 2 max_g e(g), because d2^(g*) <= d2^(h).  The code uses
tol = (4d + 8) (eps (||q||^2 + max_g ||g||^2) + tiny), twice the first-order
bound: the factor covers the 1 / (1 - n u) denominators and the rounding of
the norms, of tol and of the limit, and ``tiny`` (the smallest normal float)
covers gradual underflow, whose absolute errors the relative bounds miss.
Screen values that are NaN, and every value of a row whose limit is not
finite (overflow), are kept, so the screen never drops the winner; at worst
it keeps every column.  A row whose kept minimum is +inf has every distance
+inf, and both answers are then column 0.

Retrieval keeps the direct distances.  Sorting them with the default
(unstable) ``argsort`` gives the same permutation as a stable sort whenever a
row's values are distinct, since that permutation is unique; rows with an
exact tie, found by comparing neighbours in sorted order, are sorted again
stably.
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


# Each query block's q x g distance matrix stays within this many bytes, so
# 1-NN and retrieval take memory linear in the gallery size and a block's
# working arrays stay in cache.
_BLOCK_BYTES = 1 << 18


def _checked(Z, name):
    """Z as a float array of columns; reject non-finite entries."""
    Z = np.asarray(Z, dtype=float)
    if not np.isfinite(Z).all():
        raise ValueError(f"{name} has non-finite entries")
    return Z


def _query_blocks(n_query, n_gallery):
    """Slices of query columns, each with a ``_BLOCK_BYTES`` distance matrix."""
    step = max(1, _BLOCK_BYTES // (8 * max(1, n_gallery)))
    return [slice(start, start + step) for start in range(0, n_query, step)]


def _squared_distances(Z_query, Z_gallery, qi, gi):
    """The defining formula d2 = sum_k (Z_query[k, qi] - Z_gallery[k, gi])^2,
    summed in ascending k with every operation rounded.

    ``qi`` and ``gi`` are column indices that broadcast against each other.
    """
    d2 = np.zeros(np.broadcast_shapes(np.shape(qi), np.shape(gi)))
    x = np.empty_like(d2)
    # Distances of finite samples can overflow to inf, which still ranks.
    with np.errstate(over="ignore"):
        for zq, zg in zip(Z_query, Z_gallery):
            np.subtract(zq[qi], zg[gi], out=x)
            x *= x
            d2 += x
    return d2


def knn1_classify(Z_train, labels_train, Z_test):
    """Nearest-neighbor labels under Euclidean distance.

    Distance ties are broken toward the lowest training index.  A GEMM screen
    picks the candidates and the direct formula ranks them; the module
    docstring proves that the answer equals a full direct ranking.
    """
    Zg = _checked(Z_train, "Z_train")
    Zq = _checked(Z_test, "Z_test")
    if Zg.shape[1] == 0 and Zq.shape[1] > 0:
        raise ValueError("Z_train has no samples to classify Z_test against")
    finfo = np.finfo(float)
    factor = 4 * Zg.shape[0] + 8
    nearest = np.empty(Zq.shape[1], dtype=np.intp)
    # Finite samples can overflow the screen; overflow only widens it.
    with np.errstate(over="ignore", invalid="ignore"):
        g_norms = np.einsum("dg,dg->g", Zg, Zg)
        g_max = g_norms.max(initial=0.0)
    for rows in _query_blocks(Zq.shape[1], Zg.shape[1]):
        Qb = Zq[:, rows]
        with np.errstate(over="ignore", invalid="ignore"):
            screen = (-2.0 * Qb).T @ Zg
            screen += g_norms
            q_norms = np.einsum("dq,dq->q", Qb, Qb)
            tol = factor * (finfo.eps * (q_norms + g_max) + finfo.tiny)
            limit = screen.min(axis=1) + 2.0 * tol
            keep = np.flatnonzero(~(screen > limit[:, None]))
        r, c = np.divmod(keep, Zg.shape[1])
        screen.fill(np.inf)
        screen.flat[keep] = _squared_distances(Zq, Zg, r + rows.start, c)
        nearest[rows] = np.argmin(screen, axis=1)
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
    n_query, n_gallery = Z_query.shape[1], Z_gallery.shape[1]
    positions = np.arange(1, n_gallery + 1, dtype=np.longdouble)
    query_index, gallery_index = np.arange(n_query)[:, None], np.arange(n_gallery)
    aps = np.empty(n_query)
    for rows in _query_blocks(n_query, n_gallery):
        d2 = _squared_distances(Z_query, Z_gallery, query_index[rows], gallery_index)
        order = np.argsort(d2, axis=1)
        ranked = np.take_along_axis(d2, order, axis=1)
        tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        if tied.any():
            order[tied] = np.argsort(d2[tied], axis=1, kind="stable")
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
    A = _checked(Z_a, "Z_a")
    B = _checked(Z_b, "Z_b")
    for Z, name in ((A, "Z_a"), (B, "Z_b")):
        if Z.shape[1] == 0:
            raise ValueError(f"{name} has no samples, so no mAP is defined")
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"Z_a and Z_b must embed in the same dimension, got {A.shape[0]} "
            f"and {B.shape[0]}"
        )
    ap_ab = _direction_aps(A, labels_a, B, labels_b)
    ap_ba = _direction_aps(B, labels_b, A, labels_a)
    map_ab = float(ap_ab.mean())
    map_ba = float(ap_ba.mean())
    return RetrievalResult(
        ap_ab=ap_ab,
        ap_ba=ap_ba,
        map_ab=map_ab,
        map_ba=map_ba,
        map_mean=0.5 * (map_ab + map_ba),
    )
