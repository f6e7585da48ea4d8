"""Evaluation protocol: linear classification, 1-NN, and cross-modal retrieval.

Embeddings follow the package convention of one sample per column, and must
be finite.

Every ranking is defined by the direct squared distance
d2(q, g) = sum_k (q_k - g_k)^2, summed in ascending k with every operation
rounded whatever the memory layout of the input, and ties go to the lowest
gallery index.  The fast paths below return exactly the answers of that
definition, not approximations of them.

Both start from a GEMM screen.  Per query q it forms s(g) = ||g||^2 - 2 q^T g,
which is d2(q, g) - ||q||^2 in exact arithmetic.  With u = eps/2 the unit
roundoff, gamma_n = n u / (1 - n u), d the dimension, N = ||q||^2 + ||g||^2
and hats marking computed values:

* direct formula: each term fl(fl(q_k - g_k)^2) carries at most gamma_3
  relative error and summing d nonnegative terms, in any order, adds
  gamma_(d-1), so |d2^ - d2| <= gamma_(d+2) d2 <= 2 gamma_(d+2) N, as
  d2 <= 2N;
* screen: ||g||^2 is computed to gamma_d ||g||^2; the GEMM dot product, in
  whatever order and with or without FMA, to gamma_d sum_k |q_k g_k|
  <= gamma_d N / 2; the final addition rounds a value of size at most
  2N (1 + gamma_d) once; so |s^ - s| <= 2 gamma_(d+1) N.

Both errors together are at most e(g) = 4 gamma_(d+2) N, so
|s^(g) - (d2^(g) - ||q||^2)| <= e(g).  The code uses
tol = (4d + 8) (eps (||q||^2 + max_g ||g||^2) + tiny), twice the first-order
bound on max_g e(g): the factor covers the 1 / (1 - n u) denominators and
the rounding of the norms, of tol and of the 1-NN limit below, and ``tiny``
(the smallest normal float) covers gradual underflow, whose absolute errors
the relative bounds miss.  The GEMM rounds differently per BLAS kernel and
thread count; the answers below do not, because they rest on this bound
alone.

1-NN keeps every g with s^(g) <= min_h s^(h) + 2 tol, recomputes only those
with the direct formula and takes their argmin; the others read +inf.  The
reference winner g* is always kept: with h the screen's minimiser,
s^(g*) <= d2^(g*) - ||q||^2 + e(g*) <= d2^(h) - ||q||^2 + e(g*)
<= s^(h) + e(h) + e(g*) <= s^(h) + 2 max_g e(g), within the limit.  Screen
values that are NaN, and every value of a row whose limit is not finite
(overflow), are kept, so the screen never drops the winner; at worst it
keeps every column.  A row whose kept minimum is +inf has every distance
+inf, and both answers are then column 0.

Retrieval sorts each row by the screen and computes the direct formula only
where the screen cannot decide the order.

* Keys.  The int64 view of a double is monotone in its value on values
  >= +0.0 but reversed on negative ones, and s^ can be negative.  The
  sign-flip map b -> b ^ ((b >> 63) & (2^63 - 1)) is the identity where the
  sign bit is clear; where it is set it flips the 63 low bits, taking
  b = -2^63 + a (a the magnitude bits) to -1 - a, a negative key that falls
  as the magnitude grows.  So key order is value order on every non-NaN
  double, except that -0.0 (key -1) precedes +0.0 (key 0).  With
  m = n_gallery and p = bit_length(m - 1) bits, gallery point j gets the key
  (flip(view(s^_j)) with its low p bits cleared) | j.  Keys are distinct,
  since their low bits hold j, so any correct sort of them, stable or not
  and whatever kernel numpy dispatches to, yields one order, and the
  ranking is key & (2^p - 1).  Clearing low bits keeps the order weakly
  monotone: values whose flipped patterns share their high bits (within
  2^p units in the last place of each other) sort by index, whatever their
  own order.
* Runs.  Read a row's screen values in key order, v_0, ..., v_(m-1), and
  cut it after v_i wherever fl(v_(i+1) - v_i) > 2 tol.  Rounding is
  monotone and 2 tol is a double (doubling is exact), so the exact gap then
  exceeds 2 tol too.  In a row whose values are non-decreasing, v_i is the
  largest value before the cut and v_(i+1) the smallest after it, so every
  x before and y after have s^(y) - s^(x) > 2 tol, and
  d2^(y) - d2^(x) >= s^(y) - s^(x) - e(x) - e(y) > 0: the reference order
  keeps each run (the points between two cuts) together, in the row's order
  of runs.  A run of one point is in place.
* Repair.  Only members of longer runs get the direct formula (once they
  are more than half of a query block, it is cheaper to broadcast it over
  the whole block and read theirs).  Each run's consecutive members are
  compared by (d2^, gallery index), and every run found out of that order
  is sorted again by that pair, all in one ``lexsort``.  Every d2^ is a sum
  of squares that starts from +0.0, so it is never NaN, and with distinct
  indices the pair is a total order: a run comes back in reference order
  whatever order it arrives in.  Correctness never rests on the
  screen order inside a run, only on the cuts: each run must hold the
  points of one stretch of the reference order.  On distinct,
  well-separated distances no run is longer than one and the direct
  formula is not evaluated at all.
* Rows that are one run.  Under weakly monotone keys a row is out of screen
  order only inside a group that shares its high bits; there a value before
  a cut may exceed one after it, and an adjacent gap no longer bounds every
  pair across it.  Rows that are not non-decreasing, and rows whose tol or
  end values are not finite (overflow, or a NaN screen value from
  inf - inf), are therefore not cut: the whole row is one run, trivially
  one stretch of the reference order, and enters the repair in index order.
  Such rows need two distinct screen values within 2^p units in the last
  place, in reverse index order, or a distance near the top of the range.

Average precision sums hits / position over the relevant ranks of a row, in
extended precision.  The reference forms P = cumsum(rel) / position and sums
P * rel along each row.  Here the hits at the relevant ranks are exact
integers, hits / position is divided once in longdouble and written into a
zeroed array of the same shape, dtype and C order, so it holds exactly the
values of P * rel (x * 1 = x, x * 0 = +0.0).  The same array reduced along
the same axis by numpy's pairwise sum gives the same longdouble, so the AP
is the same bit for bit.
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
    """Fit the one-vs-rest ridge classifier on columns of Z.

    ``labels`` are integers >= 1, class r scoring in row r - 1; a class below
    the largest label may be absent from training.  ``ridge`` must be finite
    and nonnegative.
    """
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")
    Z = np.asarray(Z, dtype=float)
    labels = _labels_for(labels, "labels", Z, "Z")
    if not np.issubdtype(labels.dtype, np.integer) or (labels < 1).any():
        raise ValueError("labels must be integers >= 1")
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


def _labels_for(labels, name, Z, z_name):
    """``labels`` as an array; reject any but one entry per column of Z."""
    labels = np.asarray(labels)
    if labels.shape != (Z.shape[1],):
        raise ValueError(
            f"{name} must be one-dimensional with one entry per column of "
            f"{z_name} ({Z.shape[1]}), got shape {labels.shape}"
        )
    return labels


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


def _screened_blocks(Z_query, Z_gallery):
    """Per query block: its slice of query columns, the GEMM screen
    ||g||^2 - 2 q^T g of each of its queries against every gallery column,
    and each query's tol (module docstring)."""
    finfo = np.finfo(float)
    factor = 4 * Z_gallery.shape[0] + 8
    # Finite samples can overflow the screen; the callers handle inf and NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        g_norms = np.einsum("dg,dg->g", Z_gallery, Z_gallery)
        g_max = g_norms.max(initial=0.0)
    for rows in _query_blocks(Z_query.shape[1], Z_gallery.shape[1]):
        Qb = Z_query[:, rows]
        with np.errstate(over="ignore", invalid="ignore"):
            screen = (-2.0 * Qb).T @ Z_gallery
            screen += g_norms
            q_norms = np.einsum("dq,dq->q", Qb, Qb)
            tol = factor * (finfo.eps * (q_norms + g_max) + finfo.tiny)
        yield rows, screen, tol


def knn1_classify(Z_train, labels_train, Z_test):
    """Nearest-neighbor labels under Euclidean distance.

    Distance ties are broken toward the lowest training index.  A GEMM screen
    picks the candidates and the direct formula ranks them; the module
    docstring proves that the answer equals a full direct ranking.
    """
    Zg = _checked(Z_train, "Z_train")
    Zq = _checked(Z_test, "Z_test")
    labels_train = _labels_for(labels_train, "labels_train", Zg, "Z_train")
    if Zg.shape[1] == 0 and Zq.shape[1] > 0:
        raise ValueError("Z_train has no samples to classify Z_test against")
    nearest = np.empty(Zq.shape[1], dtype=np.intp)
    for rows, screen, tol in _screened_blocks(Zq, Zg):
        # Overflow only widens the screen.
        with np.errstate(over="ignore", invalid="ignore"):
            limit = screen.min(axis=1) + 2.0 * tol
            keep = np.flatnonzero(~(screen > limit[:, None]))
        r, c = np.divmod(keep, Zg.shape[1])
        screen.fill(np.inf)
        screen.flat[keep] = _squared_distances(Zq, Zg, r + rows.start, c)
        nearest[rows] = np.argmin(screen, axis=1)
    return labels_train[nearest]


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


# Flips the 63 low bits of a negative double's int64 view (module docstring).
_LOW_63 = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _sorted_keys(values):
    """Per row of ``values``, its packed int64 keys sorted in place, and the
    mask of the low bits that hold the column index (module docstring)."""
    low = (1 << max(values.shape[1] - 1, 0).bit_length()) - 1
    bits = values.view(np.int64)
    keys = bits >> 63
    keys &= _LOW_63
    keys ^= bits
    keys &= ~low
    keys |= np.arange(values.shape[1])
    keys.sort(axis=1)
    return keys, low


def _screen_order(Z_query, Z_gallery, rows, screen, tol):
    """Per query of ``rows``, the gallery indices in direct-distance order,
    ties to the lowest index: the screen's key order, with the direct
    formula only where the screen cannot decide (module docstring)."""
    n = screen.shape[1]
    order, low = _sorted_keys(screen)
    order &= low
    ranked = screen.take(order + n * np.arange(screen.shape[0])[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = ranked[:, 1:] - ranked[:, :-1]
        cut = gaps > (2.0 * tol)[:, None]
    finite = (
        np.isfinite(ranked[:, :1]).all(axis=1)
        & np.isfinite(ranked[:, -1:]).all(axis=1)
        & np.isfinite(tol)
    )
    if cut.all() and finite.all():
        return order
    # linked[i, j]: positions j and j + 1 of row i lie in one run.
    linked = np.zeros(order.shape, dtype=bool)
    np.logical_not(cut, out=linked[:, :-1])
    whole = ~finite | ~(gaps >= 0).all(axis=1)
    linked[whole, :-1] = True
    # The repair sorts a row whatever its order; in index order its ties are
    # already in place and the lexsort meets its index key presorted.
    order[whole] = np.arange(n)
    if linked.any():
        _order_runs(Z_query, Z_gallery, rows, order, linked)
    return order


def _order_runs(Z_query, Z_gallery, rows, order, linked):
    """Put each run of ``order`` in (direct distance, gallery index) order."""
    n = order.shape[1]
    member = linked.copy()
    member[:, 1:] |= linked[:, :-1]
    at = np.flatnonzero(member)
    gallery = order.take(at)
    row = at // n
    if 2 * at.size > order.size:
        # Gathered per member, the direct formula costs about twice as much
        # per entry as broadcast over the block (37 against 15 ns at d = 9),
        # so past half the block it is cheaper to compute the whole block.
        block = rows.start + np.arange(len(order))[:, None]
        d2 = _squared_distances(Z_query, Z_gallery, block, np.arange(n))
        d2 = d2.take(row * n + gallery)
    else:
        d2 = _squared_distances(Z_query, Z_gallery, row + rows.start, gallery)
    # Consecutive members share a run exactly when the first links onward.
    same = linked.take(at[:-1])
    ahead = (d2[:-1] < d2[1:]) | ((d2[:-1] == d2[1:]) & (gallery[:-1] < gallery[1:]))
    wrong = same & ~ahead
    if wrong.any():
        run = np.cumsum(np.concatenate(([True], ~same)))
        unordered = np.zeros(run[-1] + 1, dtype=bool)
        unordered[run[1:][wrong]] = True
        redo = np.flatnonzero(unordered[run])
        resorted = np.lexsort((gallery[redo], d2[redo], run[redo]))
        order.put(at[redo], gallery[redo[resorted]])


def _direction_aps(Z_query, labels_query, Z_gallery, labels_gallery):
    n_gallery = Z_gallery.shape[1]
    aps = np.empty(Z_query.shape[1])
    for rows, screen, tol in _screened_blocks(Z_query, Z_gallery):
        order = _screen_order(Z_query, Z_gallery, rows, screen, tol)
        rel = labels_gallery[order] == labels_query[rows, None]
        # The k-th relevant rank of a row holds k hits: its running index
        # among all relevant ranks less the count in the rows before it.
        relevant = np.flatnonzero(rel)
        totals = np.count_nonzero(rel, axis=1)
        before = np.cumsum(totals) - totals
        hits = np.arange(1, relevant.size + 1) - np.repeat(before, totals)
        terms = np.zeros(rel.shape, dtype=np.longdouble)
        terms.put(
            relevant,
            np.divide(hits, relevant % n_gallery + 1, dtype=np.longdouble),
        )
        sums = terms.sum(axis=1)
        aps[rows] = np.where(totals > 0, sums / np.maximum(totals, 1), 0.0)
    return aps


def cross_modal_retrieve(Z_a, labels_a, Z_b, labels_b):
    """Rank the full gallery of the other view for every query.

    Rankings use Euclidean distance with ties broken toward the lowest
    gallery index.  Returns per-query APs, the two directional mAPs, and
    their mean.
    """
    A = _checked(Z_a, "Z_a")
    B = _checked(Z_b, "Z_b")
    labels_a = _labels_for(labels_a, "labels_a", A, "Z_a")
    labels_b = _labels_for(labels_b, "labels_b", B, "Z_b")
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
