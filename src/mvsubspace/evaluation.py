"""Evaluation protocol: linear classification, 1-NN, and cross-modal retrieval.

Embeddings follow the package convention of one sample per column, and must
be finite.

Every ranking is defined by the direct squared distance
d2(q, g) = sum_k (q_k - g_k)^2, summed in ascending k with every operation
rounded whatever the memory layout of the input, and ties go to the lowest
gallery index.  The fast paths below return exactly the answers of that
definition, not approximations of them.

Both start from a GEMM screen.  Per query q it forms s(g) = ||g||^2 - 2 q^T g,
which is d2(q, g) - ||q||^2 in exact arithmetic, as one augmented product
[-2 q^T | 1] [g ; ||g||^2] of length d + 1: the operands are built once per
call and each query block is one GEMM of a row slice.  With u = eps/2 the
unit roundoff, gamma_n = n u / (1 - n u), d the dimension,
N = ||q||^2 + ||g||^2 and hats marking computed values:

* direct formula: each term fl(fl(q_k - g_k)^2) carries at most gamma_3
  relative error and summing d nonnegative terms, in any order, adds
  gamma_(d-1), so |d2^ - d2| <= gamma_(d+2) d2 <= 2 gamma_(d+2) N, as
  d2 <= 2N;
* screen: ||g||^2^ is computed to gamma_d ||g||^2 <= gamma_d N.  The GEMM
  sums the d + 1 products exactly formed (-2 q_k is exact) in whatever order
  and with or without FMA, to gamma_(d+1) times the sum of their magnitudes,
  2 sum_k |q_k g_k| + ||g||^2^ <= N + ||g||^2 (1 + gamma_d), at most about
  2N; so |s^ - s| <= 3 gamma_(d+1) N to first order.

Both errors together are at most e(g) = 5 gamma_(d+2) N, so
|s^(g) - (d2^(g) - ||q||^2)| <= e(g).  The code uses
tol = (5d + 10) (eps (||q||^2 + max_g ||g||^2) + tiny), twice the first-order
bound on max_g e(g): the factor covers the 1 / (1 - n u) denominators, the
second-order terms and the rounding of the norms, of tol and of the 1-NN
limit below, and ``tiny`` (the smallest normal float) covers gradual
underflow, whose absolute errors the relative bounds miss.  The GEMM rounds
differently per BLAS kernel and thread count; the answers below do not,
because they rest on this bound alone.

The bound needs a screen value computed without overflow.  A finite s^ was;
a tol that does not overflow bounds ||q||^2 + ||g||^2 by M, the largest
double, so every product is finite too.  A partial sum of the GEMM can
still overflow where s does not, if it adds the positive terms first, but
only for a point at least (2 - sqrt 2) M > M / 2 away: with P the sum of
the positive terms -2 q_k g_k and c = sum |q_k g_k| over the others,
overflow needs P + ||g||^2 > M >= ||q||^2 + ||g||^2, so P > ||q||^2, and
then d2 = ||q||^2 + ||g||^2 + P - 2c > M + ||q||^2 - 2c, where
P / 2 + c <= ||q|| ||g|| <= sqrt(||q||^2 (M - ||q||^2)) (Cauchy-Schwarz)
gives 2c < 2 sqrt(||q||^2 (M - ||q||^2)) - ||q||^2, and
M + 2x - 2 sqrt(x (M - x)) >= (2 - sqrt 2) M for every x in [0, M].  The
rounding of the partial sums and of ||g||^2 moves this by terms of order
gamma_(d+1) M.

1-NN takes each query's screen minimiser h (numpy's argmin, the first NaN if
there is one) and its limit = s^(h) + 2 tol.  A row is guarded when
|limit| < M / 2 - ||q||^2, which also makes the limit finite; then
d2^(h) <= limit + ||q||^2 + e(h) < M / 2 (1 + 10 gamma_(d+2)), so the
reference winner g*, whose (d2^, index) is at most h's, lies nearer than
(2 - sqrt 2) M: its screen value has not overflowed and obeys the bound, so
s^(g*) <= d2^(g*) - ||q||^2 + e(g*) <= d2^(h) - ||q||^2 + e(g*)
<= s^(h) + e(h) + e(g*) <= s^(h) + 2 max_g e(g), within the limit.  The
reference winner is always kept, and has a finite direct distance.  A row
that is not guarded (NaN, overflow, or norms near the top of the range)
gets an infinite limit and keeps every column.  Each row keeps every g with
s^(g) not above its limit, so NaN screen values are kept too, and always
its minimiser (rounding is monotone, so the limit is at least s^(h)).

* A row that keeps one column keeps only h, which is then g*: its answer is
  the argmin, with no direct distance.  One comparison of the block against
  the limits, counted once, finds the usual case where every row keeps one.
* Every other row's kept positions are collected, flat in the
  n_query x n_gallery matrix, and resolved together, in one call of the
  direct formula, before the next block would take them past one block's
  entries, and at the end; the answer is the least (d2^, gallery index)
  among them.  A block keeps at most its own entries, so each resolve, like
  each block, works on arrays of at most one block's entries; every query's
  positions fall in one resolve, so how queries are grouped into resolves
  cannot change an answer.  A guarded row keeps g*; any other row keeps
  every column, and if all of its distances are +inf, the least pair is
  column 0, the reference answer.

Retrieval sorts each row by the screen and computes the direct formula only
where the screen cannot decide the order.

* Packing.  With m = n_gallery and p = bit_length(m - 1), each screen value
  has its p low mantissa bits replaced by its gallery index j, in place on
  the int64 view, and each row is sorted as doubles.  A row's packed values
  are distinct (their low bits differ, and only j = 0 can pack a zero), so
  every correct sort, stable or not and whatever kernel numpy dispatches
  to, yields one order; the ranking is the low bits of the sorted values.
  Packing keeps sign and exponent, so a finite value stays finite and moves
  by less than 2^p units in its last place, each at most eps |v'| + 2^-1074
  for the packed value v'.  In a sorted row |v'| <= M, the larger magnitude
  of its two end values, and margin = 2^(p+1) (eps M + 2^-1074) is twice
  that shift; the factor covers the rounding of eps M (at most 2^-1075,
  where it underflows) and of the sums below.
* Runs.  Cut a sorted row after v'_i wherever
  fl(v'_(i+1) - v'_i) > 2 tol + 2 margin; rounding is monotone and this
  limit is a double, so the exact gap exceeds it too.  Any x sorted before
  the cut and y after it have v'(x) <= v'_i < v'_(i+1) <= v'(y), each
  within margin of its screen value, so s^(y) - s^(x) > 2 tol and
  d2^(y) - d2^(x) >= s^(y) - s^(x) - e(x) - e(y) > 0, in any sorted row,
  whether or not packing kept its screen values in order.  The reference
  order thus keeps each run (the points between two cuts) together, in the
  row's order of runs; a run of one point is in place.
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
* Rows that are one run.  Packing keeps a NaN a NaN (a quiet NaN's top
  mantissa bit lies above the index bits) and turns +-inf into NaN, or
  keeps it for j = 0; -inf sorts first, +inf and NaN last.  So a row
  holding inf or NaN (overflow, or inf - inf) has a non-finite end value,
  hence margin, and one whose tol overflows a non-finite tol.  No gap
  exceeds such a row's limit, inf or NaN: the whole row is one run,
  trivially one stretch of the reference order, and enters the repair in
  index order.  Its packed bits are never read, so it cannot matter that
  numpy's SIMD sorts write NaNs back as one canonical NaN, dropping the
  index bits they held.

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
    Z = np.asarray(Z, dtype=float)
    if Z.shape[0] != clf.W.shape[0]:
        raise ValueError(
            f"Z and clf.W must embed in the same dimension, got {Z.shape[0]} "
            f"and {clf.W.shape[0]}"
        )
    scores = clf.W.T @ Z + clf.b[:, None]
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


def _block_rows(n_gallery):
    """Query columns per block, for a ``_BLOCK_BYTES`` distance matrix."""
    return max(1, _BLOCK_BYTES // (8 * max(1, n_gallery)))


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
    and each query's tol (module docstring).

    The screen is one augmented product [-2 Z_query^T | 1] [Z_gallery ;
    ||g||^2], whose operands are built once per call."""
    d, n_gallery = Z_gallery.shape
    finfo = np.finfo(float)
    queries = np.empty((Z_query.shape[1], d + 1))
    gallery = np.empty((d + 1, n_gallery))
    gallery[:d] = Z_gallery
    # Finite samples can overflow the screen; the callers handle inf and NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(Z_query.T, -2.0, out=queries[:, :d])
        queries[:, d] = 1.0
        np.einsum("dg,dg->g", Z_gallery, Z_gallery, out=gallery[d])
        g_max = gallery[d].max(initial=0.0)
        q_norms = np.einsum("dq,dq->q", Z_query, Z_query)
        tol = (5 * d + 10) * (finfo.eps * (q_norms + g_max) + finfo.tiny)
    step = _block_rows(n_gallery)
    for start in range(0, Z_query.shape[1], step):
        rows = slice(start, start + step)
        with np.errstate(over="ignore", invalid="ignore"):
            screen = queries[rows] @ gallery
        yield rows, screen, tol[rows]


def knn1_classify(Z_train, labels_train, Z_test):
    """Nearest-neighbor labels under Euclidean distance.

    Distance ties are broken toward the lowest training index.  A GEMM screen
    picks the candidates and the direct formula ranks them where the screen
    leaves more than one; the module docstring proves that the answer equals
    a full direct ranking.
    """
    Zg = _checked(Z_train, "Z_train")
    Zq = _checked(Z_test, "Z_test")
    labels_train = _labels_for(labels_train, "labels_train", Zg, "Z_train")
    if Zg.shape[0] != Zq.shape[0]:
        raise ValueError(
            f"Z_train and Z_test must embed in the same dimension, got "
            f"{Zg.shape[0]} and {Zq.shape[0]}"
        )
    if Zg.shape[1] == 0 and Zq.shape[1] > 0:
        raise ValueError("Z_train has no samples to classify Z_test against")
    n = Zg.shape[1]
    nearest = np.empty(Zq.shape[1], dtype=np.intp)
    # A limit at or past this, less ||q||^2, might not bound the winner's
    # direct distance below overflow; such rows keep every column.
    room = 0.5 * np.finfo(float).max - np.einsum("dq,dq->q", Zq, Zq)
    # Kept flat positions of queries with more than one candidate in the
    # n_query x n_gallery matrix, resolved before they would exceed one query
    # block's entries.
    pending, count, cap = [], 0, _block_rows(n) * n
    for rows, screen, tol in _screened_blocks(Zq, Zg):
        first = screen.argmin(axis=1)
        # Overflow only widens the screen.
        with np.errstate(over="ignore", invalid="ignore"):
            limit = screen[np.arange(first.size), first] + 2.0 * tol
            limit[~(np.abs(limit) < room[rows])] = np.inf
            outside = screen > limit[:, None]
        nearest[rows] = first
        # Each row keeps its minimum, so the block keeps one entry per row
        # exactly when no row has a second candidate.
        if outside.size - np.count_nonzero(outside) == first.size:
            continue
        keep = np.flatnonzero(~outside)
        row = keep // n
        keep = keep[np.bincount(row, minlength=first.size)[row] > 1]
        if count + keep.size > cap:
            _resolve_nearest(Zq, Zg, np.concatenate(pending), nearest)
            pending, count = [], 0
        keep += rows.start * n
        pending.append(keep)
        count += keep.size
    if pending:
        _resolve_nearest(Zq, Zg, np.concatenate(pending), nearest)
    return labels_train[nearest]


def _resolve_nearest(Z_query, Z_gallery, flat, nearest):
    """Set ``nearest`` for each query with a kept position in ``flat``: its
    kept gallery index of least (direct distance, index).  ``flat`` ascends,
    so each query's positions form one run in ascending gallery index."""
    qi, gi = np.divmod(flat, Z_gallery.shape[1])
    d2 = _squared_distances(Z_query, Z_gallery, qi, gi)
    start = np.flatnonzero(np.diff(qi, prepend=-1))
    best = np.minimum.reduceat(d2, start)
    at = np.flatnonzero(d2 == np.repeat(best, np.diff(start, append=qi.size)))
    first = at[np.diff(qi[at], prepend=-1) != 0]
    nearest[qi[start]] = gi[first]


def accuracy(predicted, actual):
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("prediction and label arrays must have the same shape")
    if predicted.size == 0:
        raise ValueError("no predictions to score")
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


def _packed_sort(screen):
    """Pack each column's index into the low bits of its value in ``screen``
    and sort each row in place as doubles.  Returns the int64 view, the mask
    of the index bits and each row's margin (module docstring)."""
    n = screen.shape[1]
    p = max(n - 1, 0).bit_length()
    low = (1 << p) - 1
    packed = screen.view(np.int64)
    packed &= ~low
    packed |= np.arange(n)
    screen.sort(axis=1)
    finfo = np.finfo(float)
    largest = np.abs(screen[:, :: max(n - 1, 1)]).max(axis=1, initial=0.0)
    margin = 2.0 ** (p + 1) * (finfo.eps * largest + finfo.smallest_subnormal)
    return packed, low, margin


def _screen_order(Z_query, Z_gallery, rows, screen, tol):
    """Per query of ``rows``, the gallery indices in direct-distance order,
    ties to the lowest index: the order of the packed screen, with the direct
    formula only where the screen cannot decide (module docstring).  Packs
    and sorts ``screen`` in place; the result is a view of its memory."""
    order, low, margin = _packed_sort(screen)
    with np.errstate(over="ignore", invalid="ignore"):
        limit = 2.0 * tol + 2.0 * margin
        cut = np.diff(screen, axis=1) > limit[:, None]
    order &= low
    if cut.all():
        return order
    # linked[i, j]: positions j and j + 1 of row i lie in one run.
    linked = np.zeros(order.shape, dtype=bool)
    np.logical_not(cut, out=linked[:, :-1])
    # A row whose limit is not finite has no cut and its packed bits may be
    # lost.  The repair sorts a row whatever its order; in index order its
    # ties are already in place and the lexsort meets its index key presorted.
    order[~np.isfinite(limit)] = np.arange(order.shape[1])
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
    # One code per distinct label, NaN labels each their own, so equal codes
    # are exactly labels_gallery[j] == labels_query[i].
    labels = np.concatenate((labels_gallery, labels_query))
    classes, codes = np.unique(labels, return_inverse=True, equal_nan=False)
    codes = codes.astype(np.min_scalar_type(classes.size))
    codes_gallery, codes_query = codes[:n_gallery], codes[n_gallery:]
    # Every row ranks each gallery point once, so it holds all of its class.
    class_counts = np.bincount(codes_gallery, minlength=classes.size)
    aps = np.empty(Z_query.shape[1])
    for rows, screen, tol in _screened_blocks(Z_query, Z_gallery):
        order = _screen_order(Z_query, Z_gallery, rows, screen, tol)
        rel = codes_gallery.take(order) == codes_query[rows, None]
        # The k-th relevant rank of a row holds k hits: its running index
        # among all relevant ranks less the count in the rows before it.
        relevant = np.flatnonzero(rel)
        totals = class_counts[codes_query[rows]]
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
