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
[-2 q^T | 1] [g ; ||g||^2] of length d + 1.  Each view's squared norms, and
each operand it needs, are built once per call: retrieval's two directions
share them, and tol, the gallery operand and 1-NN's overflow guard read the
same norms.  Each query block is one GEMM of a row slice.  With u = eps/2 the
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

* A row keeps only h exactly when its second-least screen value exceeds
  its limit: every other column is then strictly above it, and a NaN, which
  is kept, makes the least of them NaN, which exceeds nothing.  Its answer
  is h, which is then g*, with no direct distance.  The block's screen gets
  +inf written at each row's argmin and one min along the rows; with a NaN
  minimum or an unguarded row the limit is infinite and nothing exceeds it,
  so such rows are never single (a gallery of one column leaves +inf as the
  second-least value, above any finite limit).  When every row of the block
  is single the block is done; otherwise the argmins' values are written
  back, and only the other rows are compared with their limits.
* Every other row of a block has its kept positions resolved in that
  block, in one call of the direct formula; the answer is the least
  (d2^, gallery index) among them.  A block keeps at most its own entries,
  so each resolve, like each block, works on arrays of at most one block's
  entries.  A guarded row keeps g*; any other row keeps every column, and
  if all of its distances are +inf, the least pair is column 0, the
  reference answer.

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
* Repair.  Only members of longer runs get the direct formula, one entry
  per member.  Each run's consecutive members are compared by
  (d2^, gallery index), and every run found out of that order is sorted
  again by that pair, all in one ``lexsort``.  Every d2^ is a sum
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

A gallery point is relevant when its label code equals the query's; both
directions share one code per distinct label and each view's count per
code, built once per call.

Average precision sums t_k = hits / position over the m relevant ranks of a
row, in extended precision, and divides by m.  The reference forms
P = cumsum(rel) / position and sums P * rel along each row of n_gallery
longdoubles, then divides.  The hits at the relevant ranks are exact
integers, taken with the positions from a longdouble table of 1 .. n_gallery,
and hits / position is divided once in longdouble, so the t_k are exactly
the nonzero values of P * rel (x * 1 = x, x * 0 = +0.0).

* Fast sum.  Each row's m terms are summed alone, in one ``add.reduceat``,
  and divided by m: q = fl(S / m).  With u the longdouble unit roundoff
  (``finfo(longdouble).epsneg``; longdouble arithmetic is assumed to round
  to nearest, as IEEE extended, quad and double do) and T the exact sum of
  the t_k, S lies within gamma_(m-1) T of T: every t_k is positive, and any
  order of summing m positive numbers passes each through at most m - 1
  rounded additions (Higham, Accuracy and Stability of Numerical
  Algorithms, 2nd ed., sec. 4.2).  The reference's row sum S_ref adds the
  same terms and +0.0s; adding +0.0 is exact, so it too is a sum of the m
  terms in some order, within gamma_(m-1) T of T.
* Certificate.  With g = gamma_(m-1) and k = m - 1,
  (1 + g) / (1 - g) = 1 / (1 - 2ku), so the reference quotient
  q_ref = fl(S_ref / m) lies in
  [q (1 - 2ku)(1 - u) / (1 + u), q (1 + u) / ((1 - 2ku)(1 - u))].  With
  delta = (2m + 4) u, an even multiple of u below 1 / 2, 1 - delta and
  1 + delta are exact longdoubles, and lo = fl(q (1 - delta)) and
  hi = fl(q (1 + delta)) bracket that interval:
  lo <= q (1 - delta)(1 + u) <= q (1 - 2ku)(1 - u) / (1 + u) needs
  delta (1 + u)^2 >= (2k + 3) u + u^2 - 2k u^2, which (2k + 6) u meets;
  hi >= q (1 + delta)(1 - u) >= q (1 + u) / ((1 - 2ku)(1 - u)) needs
  (1 + delta)(1 - u)^2 (1 - 2ku) >= 1 + u, which, expanded,
  (1 - u)^2 >= 1 - 2u and dropping positive terms, holds when
  3 >= 4 k^2 u + 12 (k + 1) u; to first order delta = (2m + 1) u would do.
  That holds whenever n_gallery^2 u <= 1 / 2 (then 4 k^2 u <= 2 and, with
  u <= 2^-53, 12 m u <= 1); a larger gallery takes the reference sum for
  every row.  Rounding to float64 is monotone, so where
  float(lo) == float(hi), float(q_ref) is that value too, as is float(q),
  which lies between lo and hi: the fast AP is the reference's bit for bit.
* Fallback.  Every other row writes its terms into a zeroed row of
  n_gallery longdoubles, in place of P * rel, and reduces it along the row
  with numpy's pairwise sum, as the reference does, so it gets the same
  longdouble, whatever the number of rows reduced at once.  About 6-8% of
  rows fall back on the benchmark's embeddings.  Where longdouble is
  double, the bracket spans more than one double's ulp and every row falls
  back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


class _Operands:
    """One view's operands for the GEMM screen: its squared norms ||z||^2,
    and, each built at most once, [-2 Z^T | 1] for Z as the queries and
    [Z ; ||z||^2] for Z as the gallery (module docstring)."""

    def __init__(self, Z):
        self.Z = Z
        # Finite samples can overflow the screen; the callers handle inf and NaN.
        with np.errstate(over="ignore"):
            self.norms = np.einsum("dq,dq->q", Z, Z)

    @cached_property
    def queries(self):
        d, n = self.Z.shape
        queries = np.empty((n, d + 1))
        with np.errstate(over="ignore"):
            np.multiply(self.Z.T, -2.0, out=queries[:, :d])
        queries[:, d] = 1.0
        return queries

    @cached_property
    def gallery(self):
        d, n = self.Z.shape
        gallery = np.empty((d + 1, n))
        gallery[:d] = self.Z
        gallery[d] = self.norms
        return gallery


def _screened_blocks(query, gallery):
    """Per query block: its slice of query columns, the GEMM screen
    ||g||^2 - 2 q^T g of each of its queries against every gallery column,
    and each query's tol (module docstring).

    ``query`` and ``gallery`` are ``_Operands``; each block's screen is one
    product of a row slice of the query operand."""
    d, n_gallery = gallery.Z.shape
    finfo = np.finfo(float)
    with np.errstate(over="ignore", invalid="ignore"):
        g_max = gallery.norms.max(initial=0.0)
        tol = (5 * d + 10) * (finfo.eps * (query.norms + g_max) + finfo.tiny)
    queries, augmented = query.queries, gallery.gallery
    step = _block_rows(n_gallery)
    for start in range(0, query.Z.shape[1], step):
        rows = slice(start, start + step)
        with np.errstate(over="ignore", invalid="ignore"):
            screen = queries[rows] @ augmented
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
    nearest = np.empty(Zq.shape[1], dtype=np.intp)
    test, train = _Operands(Zq), _Operands(Zg)
    # A limit at or past this, less ||q||^2, might not bound the winner's
    # direct distance below overflow; such rows keep every column.
    room = 0.5 * np.finfo(float).max - test.norms
    for rows, screen, tol in _screened_blocks(test, train):
        first = screen.argmin(axis=1)
        at = np.arange(first.size)
        least = screen[at, first]
        nearest[rows] = first
        # Overflow only widens the screen.
        with np.errstate(over="ignore", invalid="ignore"):
            limit = least + 2.0 * tol
            limit[~(np.abs(limit) < room[rows])] = np.inf
            # A row keeps only its minimum exactly when its second-least
            # screen value exceeds its limit.
            screen[at, first] = np.inf
            single = screen.min(axis=1) > limit
        if single.all():
            continue
        screen[at, first] = least
        others = np.flatnonzero(~single)
        with np.errstate(invalid="ignore"):
            keep = np.flatnonzero(~(screen[others] > limit[others, None]))
        row, column = np.divmod(keep, Zg.shape[1])
        _resolve_nearest(Zq, Zg, others[row] + rows.start, column, nearest)
    return labels_train[nearest]


def _resolve_nearest(Z_query, Z_gallery, qi, gi, nearest):
    """Set ``nearest`` for each query in ``qi`` to its kept gallery index in
    ``gi`` of least (direct distance, index).  The pairs ascend by query,
    then gallery index, so each query's pairs form one run."""
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
    d2 = _squared_distances(Z_query, Z_gallery, at // n + rows.start, gallery)
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


def _label_codes(labels_a, labels_b):
    """Per view, its labels as small unsigned codes and the count of each
    code among them.  Both views share one code per distinct label, NaN
    labels each their own, so equal codes are exactly equal labels."""
    classes, codes = np.unique(
        np.concatenate((labels_a, labels_b)), return_inverse=True, equal_nan=False
    )
    codes = np.split(codes.astype(np.min_scalar_type(classes.size)), [len(labels_a)])
    return [(part, np.bincount(part, minlength=classes.size)) for part in codes]


def _direction_aps(query, codes_query, gallery, codes_gallery, class_counts):
    """Per query of ``query``, the AP of its ranking of ``gallery`` (both
    ``_Operands``), from ``_label_codes``: the codes of both sides and the
    gallery's count per code."""
    n_gallery = gallery.Z.shape[1]
    # The integers 1 .. n_gallery, exact in longdouble: every hit count and
    # position is one, and taking them is cheaper than converting integers.
    integers = np.arange(1, n_gallery + 1, dtype=np.longdouble)
    aps = np.empty(query.Z.shape[1])
    for rows, screen, tol in _screened_blocks(query, gallery):
        order = _screen_order(query.Z, gallery.Z, rows, screen, tol)
        rel = codes_gallery.take(order) == codes_query[rows, None]
        # The k-th relevant rank of a row holds k hits, integers[k - 1]: k - 1
        # is its running index among all relevant ranks less the count in
        # the rows before it.
        relevant = np.flatnonzero(rel)
        # Every row ranks each gallery point once, so it holds all of its class.
        totals = class_counts[codes_query[rows]]
        before = np.cumsum(totals) - totals
        hits = np.arange(relevant.size) - np.repeat(before, totals)
        columns = relevant - np.repeat(np.arange(totals.size) * n_gallery, totals)
        terms = integers.take(hits) / integers.take(columns)
        aps[rows] = _row_aps(terms, columns, totals, before, n_gallery)
    return aps


# u, the unit roundoff of longdouble arithmetic.  The AP certificate rests on
# |fl(x) - x| <= u |x| for every longdouble operation (module docstring).
_UNIT = np.finfo(np.longdouble).epsneg


def _row_aps(terms, columns, totals, before, n_gallery):
    """Each row's AP from its relevant ``terms``, k / position in longdouble:
    the m terms of a row summed alone where a rounding certificate shows that
    the float64 AP equals that of the dense row sum, and the dense row sum
    elsewhere (module docstring).  A row holds ``totals`` terms, starting at
    ``before``, at ``columns`` of the ranking."""
    aps = np.zeros(totals.size)
    some = np.flatnonzero(totals)
    if some.size == 0:
        return aps
    m = totals[some]
    quotient = np.add.reduceat(terms, before[some]) / m
    delta = (2 * m + 4) * _UNIT
    aps[some] = low = (quotient * (1 - delta)).astype(float)
    # The certificate's second-order terms need n_gallery^2 u <= 1 / 2.
    too_large = n_gallery * n_gallery * _UNIT > 0.5
    uncertain = some[too_large | (low != (quotient * (1 + delta)).astype(float))]
    if uncertain.size:
        aps[uncertain] = _dense_aps(
            terms, columns, totals, before, uncertain, n_gallery
        )
    return aps


def _dense_aps(terms, columns, totals, before, rows, n_gallery):
    """The APs of ``rows`` as the reference sums them: each row's terms
    written into a zeroed row of n_gallery longdoubles, summed along it and
    divided by the row's relevant count."""
    counts = totals[rows]
    start = np.cumsum(counts) - counts
    picked = np.arange(counts.sum()) + np.repeat(before[rows] - start, counts)
    dense = np.zeros((rows.size, n_gallery), dtype=np.longdouble)
    at = columns[picked] + np.repeat(np.arange(rows.size) * n_gallery, counts)
    dense.put(at, terms[picked])
    return dense.sum(axis=1) / counts


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
    # Each view is the query side of one direction and the gallery of the other.
    a, b = _Operands(A), _Operands(B)
    (codes_a, counts_a), (codes_b, counts_b) = _label_codes(labels_a, labels_b)
    ap_ab = _direction_aps(a, codes_a, b, codes_b, counts_b)
    ap_ba = _direction_aps(b, codes_b, a, codes_a, counts_a)
    map_ab = float(ap_ab.mean())
    map_ba = float(ap_ba.mean())
    return RetrievalResult(
        ap_ab=ap_ab,
        ap_ba=ap_ba,
        map_ab=map_ab,
        map_ba=map_ba,
        map_mean=0.5 * (map_ab + map_ba),
    )
