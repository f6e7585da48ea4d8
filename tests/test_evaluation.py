"""Classifier, 1-NN, and retrieval metrics."""

import numpy as np
import pytest

from mvsubspace import evaluation
from mvsubspace.evaluation import (
    _Operands,
    _packed_sort,
    _screen_order,
    accuracy,
    average_precision,
    classify,
    cross_modal_retrieve,
    knn1_classify,
    train_linear_classifier,
)

from helpers import dense_direction_aps, dense_knn1


def _direction_aps(Z_query, labels_query, Z_gallery, labels_gallery):
    """One direction of ``cross_modal_retrieve``, on any number of queries."""
    (codes_query, _), (codes_gallery, counts) = evaluation._label_codes(
        labels_query, labels_gallery
    )
    return evaluation._direction_aps(
        _Operands(Z_query), codes_query, _Operands(Z_gallery), codes_gallery, counts
    )


def _screened_blocks(Z_query, Z_gallery):
    """The screened query blocks of Z_query against Z_gallery."""
    return evaluation._screened_blocks(_Operands(Z_query), _Operands(Z_gallery))


def test_average_precision_hand_values():
    assert average_precision([1, 0, 1]) == 5 / 6
    assert average_precision([0, 0, 1]) == 1 / 3
    assert average_precision([1, 1, 1]) == 1.0
    assert average_precision([0, 0, 0]) == 0.0


def test_average_precision_rejects_matrices():
    with pytest.raises(ValueError, match="one-dimensional"):
        average_precision(np.eye(2))


def test_coincident_pairs_retrieve_perfectly():
    # both views identical and every sample its own class: the matching
    # gallery item always ranks first, so AP is 1 for every query
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((3, 8))
    labels = np.arange(1, 9)
    res = cross_modal_retrieve(Z, labels, Z, labels)
    assert res.map_ab == 1.0
    assert res.map_ba == 1.0
    assert res.map_mean == 1.0


def test_retrieval_directions_swap():
    rng = np.random.default_rng(1)
    Za, Zb = rng.standard_normal((2, 9)), rng.standard_normal((2, 7))
    la = rng.integers(1, 3, 9)
    lb = rng.integers(1, 3, 7)
    fwd = cross_modal_retrieve(Za, la, Zb, lb)
    rev = cross_modal_retrieve(Zb, lb, Za, la)
    assert fwd.map_ab == rev.map_ba
    assert fwd.map_ba == rev.map_ab
    assert fwd.map_mean == rev.map_mean


def test_retrieval_matches_scalar_ap():
    rng = np.random.default_rng(2)
    Zq, Zg = rng.standard_normal((2, 5)), rng.standard_normal((2, 6))
    lq, lg = rng.integers(1, 3, 5), rng.integers(1, 3, 6)
    res = cross_modal_retrieve(Zq, lq, Zg, lg)
    d2 = ((Zq.T[:, None, :] - Zg.T[None, :, :]) ** 2).sum(-1)
    for i in range(5):
        order = np.argsort(d2[i], kind="stable")
        assert res.ap_ab[i] == average_precision((lg[order] == lq[i]).astype(int))


def test_knn_breaks_ties_toward_lowest_index():
    Ztr = np.array([[0.0, 2.0, 5.0]])
    got = knn1_classify(Ztr, np.array([7, 9, 3]), np.array([[1.0]]))
    np.testing.assert_array_equal(got, [7])


def test_knn_recovers_training_labels():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((4, 12))
    labels = rng.integers(1, 4, 12)
    np.testing.assert_array_equal(knn1_classify(Z, labels, Z), labels)


def test_linear_classifier_separates_clusters():
    rng = np.random.default_rng(4)
    n = 30
    labels = np.repeat([1, 2, 3], n // 3)
    # one cluster per coordinate axis so every one-vs-rest cut exists
    Z = rng.standard_normal((3, n)) * 0.1 + 3.0 * np.eye(3)[:, labels - 1]
    clf = train_linear_classifier(Z, labels)
    assert accuracy(classify(clf, Z), labels) == 1.0


def test_linear_classifier_constant_label():
    Z = np.random.default_rng(5).standard_normal((3, 10))
    clf = train_linear_classifier(Z, np.ones(10, dtype=int))
    np.testing.assert_array_equal(classify(clf, Z), np.ones(10, dtype=int))


@pytest.mark.parametrize("labels", [
    np.array([0, 0, 1, 1, 2, 2]),
    np.array([1, 1, -1, 2, 2, 2]),
    np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
], ids=["zero", "negative", "float"])
def test_linear_classifier_rejects_labels_below_one_or_not_integer(labels):
    Z = np.random.default_rng(7).standard_normal((3, 6))
    with pytest.raises(ValueError, match="labels must be integers >= 1"):
        train_linear_classifier(Z, labels)


@pytest.mark.parametrize("ridge", [-5.0, np.nan, np.inf])
def test_linear_classifier_rejects_a_negative_or_non_finite_ridge(ridge):
    Z = np.random.default_rng(0).standard_normal((2, 6))
    with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
        train_linear_classifier(Z, np.array([1, 1, 1, 2, 2, 2]), ridge=ridge)


def test_linear_classifier_allows_a_class_absent_from_training():
    rng = np.random.default_rng(8)
    labels = np.repeat([1, 3], 6)
    Z = rng.standard_normal((2, 12)) * 0.1 + 3.0 * np.eye(2)[:, labels // 2]
    clf = train_linear_classifier(Z, labels)
    assert clf.W.shape == (2, 3)
    np.testing.assert_array_equal(classify(clf, Z), labels)


def test_duplicated_rows_still_classify():
    # stacking the same features twice must not break the ridge solve
    rng = np.random.default_rng(6)
    labels = np.repeat([1, 2], 10)
    Z = rng.standard_normal((4, 20)) * 0.1 + 2.0 * labels[None, :]
    doubled = np.vstack([Z, Z])
    clf = train_linear_classifier(doubled, labels)
    assert accuracy(classify(clf, doubled), labels) == 1.0


def test_accuracy():
    assert accuracy(np.array([1, 2, 2]), np.array([1, 2, 3])) == pytest.approx(2 / 3)


def test_accuracy_rejects_empty_arrays():
    # the mean of nothing used to return nan with two RuntimeWarnings
    with pytest.raises(ValueError, match="no predictions to score"):
        accuracy(np.array([]), np.array([]))


def test_classify_rejects_mismatched_dimensions():
    rng = np.random.default_rng(20)
    clf = train_linear_classifier(rng.standard_normal((3, 8)), np.arange(8) % 2 + 1)
    with pytest.raises(ValueError, match="Z and clf.W .* same dimension, got 2 and 3"):
        classify(clf, rng.standard_normal((2, 5)))


def test_query_blocks_match_the_dense_distances():
    # 300 queries against 600 gallery points span several query blocks;
    # rounded coordinates put ties inside every ranking
    rng = np.random.default_rng(7)
    Zq = np.round(rng.standard_normal((4, 300)))
    Zg = np.round(rng.standard_normal((4, 600)))
    lq, lg = rng.integers(1, 4, 300), rng.integers(1, 4, 600)
    d2 = ((Zq.T[:, None, :] - Zg.T[None, :, :]) ** 2).sum(-1)
    np.testing.assert_array_equal(
        knn1_classify(Zg, lg, Zq), lg[np.argmin(d2, axis=1)]
    )
    res = cross_modal_retrieve(Zq, lq, Zg, lg)
    for i in range(300):
        order = np.argsort(d2[i], kind="stable")
        assert res.ap_ab[i] == average_precision((lg[order] == lq[i]).astype(int))


def test_knn_rejects_non_finite_embeddings():
    # a NaN query used to take the label of training column 0
    with pytest.raises(ValueError, match="Z_test has non-finite"):
        knn1_classify([[0.0, 2.0, 5.0]], [7, 9, 3], [[np.nan, 4.9]])
    with pytest.raises(ValueError, match="Z_train has non-finite"):
        knn1_classify([[0.0, np.inf, 5.0]], [7, 9, 3], [[1.0]])


def test_retrieval_rejects_non_finite_embeddings():
    # a NaN query used to score AP 1.0
    Z = np.random.default_rng(8).standard_normal((2, 4))
    labels = np.array([1, 2, 1, 2])
    bad = Z.copy()
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="Z_a has non-finite"):
        cross_modal_retrieve(bad, labels, Z, labels)
    bad[0, 1] = -np.inf
    with pytest.raises(ValueError, match="Z_b has non-finite"):
        cross_modal_retrieve(Z, labels, bad, labels)


def test_knn_rejects_an_empty_training_set():
    # numpy's "zero-size array to reduction" error named neither input
    with pytest.raises(ValueError, match="Z_train has no samples"):
        knn1_classify(np.zeros((3, 0)), np.zeros(0, dtype=int), np.ones((3, 2)))
    assert knn1_classify(np.zeros((3, 0)), [], np.zeros((3, 0))).shape == (0,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("empty", ["Z_a", "Z_b"])
def test_retrieval_rejects_a_view_without_samples(empty):
    # the mean of an empty AP array used to return NaN with a RuntimeWarning
    Z = np.random.default_rng(10).standard_normal((3, 4))
    labels = np.array([1, 2, 1, 2])
    none, no_labels = np.zeros((3, 0)), np.zeros(0, dtype=int)
    args = (none, no_labels, Z, labels) if empty == "Z_a" else (Z, labels, none, no_labels)
    with pytest.raises(ValueError, match=f"{empty} has no samples"):
        cross_modal_retrieve(*args)


def test_knn_rejects_mismatched_dimensions():
    rng = np.random.default_rng(9)
    Z_train, Z_test = rng.standard_normal((3, 4)), rng.standard_normal((2, 3))
    with pytest.raises(
        ValueError, match="Z_train and Z_test .* same dimension, got 3 and 2"
    ):
        knn1_classify(Z_train, [1, 2, 1, 2], Z_test)


def test_retrieval_rejects_mismatched_dimensions():
    rng = np.random.default_rng(9)
    labels = np.array([1, 2, 1])
    with pytest.raises(ValueError, match="same dimension, got 3 and 2"):
        cross_modal_retrieve(
            rng.standard_normal((3, 3)), labels, rng.standard_normal((2, 3)), labels
        )


def _adversarial_case(name):
    """(Z_query, labels_query, Z_gallery, labels_gallery) for one named case."""
    rng = np.random.default_rng(11)
    if name == "duplicated_gallery":
        base = rng.standard_normal((5, 40))
        Zg = base[:, rng.integers(0, 40, 200)]
        Zq = np.hstack([base[:, :20], rng.standard_normal((5, 30))])
    elif name == "rounded_ties":
        Zq = np.round(2 * rng.standard_normal((3, 120))) / 2
        Zg = np.round(2 * rng.standard_normal((3, 500))) / 2
    elif name == "one_ulp_apart":
        base = rng.standard_normal((4, 30))
        Zg = np.hstack(
            [base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
        )[:, rng.permutation(90)]
        Zq = np.hstack([base, base + 1e-15 * rng.standard_normal((4, 30))])
    elif name == "offset_1e6":
        # GEMM distances cancel ~12 digits here, so the screen keeps many
        Zq = 1e6 + rng.standard_normal((3, 80))
        Zg = 1e6 + rng.standard_normal((3, 700))
    elif name == "overflow":
        # coordinates at 1e200 square to +inf; 1e150 gives finite sums
        # near the top of the range, and unit scale ordinary distances
        scales = 10.0 ** np.array([0, 150, 200])
        Zq = rng.standard_normal((3, 60)) * scales[rng.integers(0, 3, 60)]
        Zg = rng.standard_normal((3, 90)) * scales[rng.integers(0, 3, 90)]
    elif name == "all_overflow":
        # coordinates at 1e154 square to near the top of the range, so every
        # tol, and many norms and distances, overflow: every row is one run.
        # 200 queries against 400 gallery points span three query blocks
        # either way.
        Zq = 1e154 * rng.standard_normal((3, 200))
        Zg = 1e154 * rng.standard_normal((3, 400))
    elif name == "overflowed_distances":
        # every direct distance overflows to +inf while the norms and tol do
        # not; column 0's screen value overflows too, so the screen drops it
        # and keeps only points at +inf, yet column 0 is the answer
        Zq = 1e154 * rng.uniform(0.9, 0.95, (1, 30))
        Zg = -1e154 * np.hstack([[0.9], rng.uniform(0.5, 0.6, 50)])[None, :]
    elif name == "subnormal":
        # coordinates whose squares underflow (1e-160) or that are subnormal
        # themselves (1e-310): the screen's tol rests on its tiny term alone
        scales = np.array([1e-155, 1e-160, 1e-310])
        Zq = rng.standard_normal((3, 70)) * scales[rng.integers(0, 3, 70)]
        Zg = rng.standard_normal((3, 110)) * scales[rng.integers(0, 3, 110)]
    elif name == "signed_zeros":
        Zq = np.round(rng.standard_normal((3, 60)))
        Zg = np.round(rng.standard_normal((3, 150)))
        for Z in (Zq, Zg):
            zero = Z == 0
            Z[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
    elif name == "one_duplicated_pair":
        Zq = rng.standard_normal((4, 40))
        Zg = rng.standard_normal((4, 90))
        Zg[:, 61] = Zg[:, 17]
    elif name == "straddling_zero":
        # every gallery point lies at distance 1 from (1, 0) up to rounding,
        # so that query's screen values are a few ulps either side of zero:
        # exact ring points, their one-ulp neighbours and points at random
        # angles, whose direct distances round to ties and near-ties
        ring = np.array([[1.0, 1.0, 0.0, 2.0], [1.0, -1.0, 0.0, 0.0]])
        angle = rng.uniform(0.0, 2.0 * np.pi, 40)
        Zg = np.hstack([ring] + [
            np.where(np.arange(2)[:, None] == k, np.nextafter(ring, to), ring)
            for k in range(2) for to in (-np.inf, np.inf)
        ] + [[1.0 + np.cos(angle), np.sin(angle)]])[:, rng.permutation(60)]
        Zq = np.hstack([
            [[1.0], [0.0]], np.nextafter([[1.0], [0.0]], 1.0), Zg[:, :3],
            rng.standard_normal((2, 5)),
        ])
    elif name == "sphere_near_ties":
        # Gallery points on the sphere of radius 1 + 1e-10 about a query,
        # whose norm is 1: their screen values ~2e-10 differ by rounding,
        # ~1e-16, far beyond the 2^p ulps packing moves them, so the rows
        # stay in screen order while the direct distances disagree with it.
        q = rng.standard_normal((3, 1))
        q /= np.sqrt((q**2).sum())
        u = rng.standard_normal((3, 80))
        Zg = q + (1.0 + 1e-10) * u / np.sqrt((u**2).sum(axis=0))
        Zq = np.hstack([q, q + 1e-3 * rng.standard_normal((3, 4))])
    elif name == "absorbed_screen":
        # A 1e8 offset absorbs the 1e-3 coordinate into ||g||^2, so the
        # screen ties exactly where the direct distances differ; the 1e3
        # gallery points stay apart.  Runs are then out of distance order,
        # few per row one way and every point the other.
        Zq = np.vstack([np.full(40, 1e8), 1e-3 * rng.standard_normal(40)])
        far = rng.random(120) < 0.8
        Zg = np.vstack([
            np.full(120, 1e8),
            np.where(far, 1e3, 1e-3) * rng.standard_normal(120),
        ])
    elif name == "gallery_of_one":
        Zq, Zg = rng.standard_normal((4, 9)), rng.standard_normal((4, 1))
    elif name == "zero_dimensions":
        Zq, Zg = np.zeros((0, 7)), np.zeros((0, 300))
    elif name == "no_queries":
        Zq, Zg = np.zeros((3, 0)), rng.standard_normal((3, 25))
    else:
        raise ValueError(name)
    lq = rng.integers(1, 4, Zq.shape[1])
    lg = rng.integers(1, 4, Zg.shape[1])
    return Zq, lq, Zg, lg


ADVERSARIAL = [
    "duplicated_gallery", "rounded_ties", "one_ulp_apart", "offset_1e6",
    "overflow", "all_overflow", "overflowed_distances", "subnormal",
    "signed_zeros", "one_duplicated_pair", "straddling_zero",
    "sphere_near_ties", "absorbed_screen", "gallery_of_one",
    "zero_dimensions", "no_queries",
]


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_rankings_match_the_direct_oracle(name):
    Zq, lq, Zg, lg = _adversarial_case(name)
    np.testing.assert_array_equal(
        knn1_classify(Zg, lg, Zq), dense_knn1(Zg, lg, Zq)
    )
    # both directions, as cross_modal_retrieve runs them
    np.testing.assert_array_equal(
        _direction_aps(Zq, lq, Zg, lg), dense_direction_aps(Zq, lq, Zg, lg)
    )
    np.testing.assert_array_equal(
        _direction_aps(Zg, lg, Zq, lq), dense_direction_aps(Zg, lg, Zq, lq)
    )


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_knn_does_not_depend_on_the_block_size(name, monkeypatch):
    # 64-byte blocks hold 8 distances, a query row or less in every case but
    # the gallery of one, so the kept candidates reach one block's entries,
    # and are resolved, partway through the call
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", 64)
    Zq, _, Zg, lg = _adversarial_case(name)
    entries = _count_direct_entries(monkeypatch)
    np.testing.assert_array_equal(
        knn1_classify(Zg, lg, Zq), dense_knn1(Zg, lg, Zq)
    )
    block = evaluation._block_rows(Zg.shape[1]) * Zg.shape[1]
    assert max(entries, default=0) <= block


def test_knn_matches_the_oracle_on_random_near_ties(monkeypatch):
    # clustered points with ulp-level perturbations and shared columns, at
    # scales where the screen's cancellation varies from none to severe; at
    # the default block size and at 64-byte blocks, which resolve the kept
    # candidates partway through the call
    sizes = (evaluation._BLOCK_BYTES, 64)
    rng = np.random.default_rng(12)
    for _ in range(200):
        d, q, g = rng.integers(1, 30), rng.integers(1, 20), rng.integers(2, 120)
        base = rng.standard_normal((d, 1)) * 10.0 ** rng.integers(-4, 8)
        spread = 10.0 ** rng.integers(-12, 1)
        Zg = base + spread * rng.standard_normal((d, g))
        picks = rng.integers(0, g, g // 2)
        Zg[:, rng.integers(0, g, g // 2)] = np.nextafter(Zg[:, picks], np.inf)
        Zq = base + spread * rng.standard_normal((d, q))
        Zq[:, : q // 2] = Zg[:, rng.integers(0, g, q // 2)]
        labels = np.arange(g)
        expected = dense_knn1(Zg, labels, Zq)
        for block_bytes in sizes:
            monkeypatch.setattr(evaluation, "_BLOCK_BYTES", block_bytes)
            np.testing.assert_array_equal(knn1_classify(Zg, labels, Zq), expected)


def _near_tie_draws():
    """(Zq, lq, Zg, lg) draws of clustered points with duplicated and
    one-ulp-shifted gallery columns, at bases up to 1e150, whose squared
    norms near the top of the range."""
    rng = np.random.default_rng(18)
    for _ in range(200):
        d, q, g = rng.integers(1, 12), rng.integers(1, 20), rng.integers(2, 120)
        scale = 10.0 ** rng.integers(-4, 151)
        base = scale * rng.standard_normal((d, 1))
        spread = scale * 10.0 ** rng.integers(-15, 1)
        Zg = base + spread * rng.standard_normal((d, g))
        Zg[:, rng.integers(0, g, g // 4)] = Zg[:, rng.integers(0, g, g // 4)]
        picks = rng.integers(0, g, g // 2)
        Zg[:, rng.integers(0, g, g // 2)] = np.nextafter(Zg[:, picks], np.inf)
        Zq = base + spread * rng.standard_normal((d, q))
        Zq[:, : q // 2] = Zg[:, rng.integers(0, g, q // 2)]
        yield Zq, rng.integers(1, 4, q), Zg, rng.integers(1, 4, g)


def test_retrieval_matches_the_oracle_on_random_near_ties(monkeypatch):
    # both directions, at the default block size and at 64-byte blocks
    sizes = (evaluation._BLOCK_BYTES, 64)
    for Zq, lq, Zg, lg in _near_tie_draws():
        expected = (
            dense_direction_aps(Zq, lq, Zg, lg), dense_direction_aps(Zg, lg, Zq, lq)
        )
        for block_bytes in sizes:
            monkeypatch.setattr(evaluation, "_BLOCK_BYTES", block_bytes)
            np.testing.assert_array_equal(_direction_aps(Zq, lq, Zg, lg), expected[0])
            np.testing.assert_array_equal(_direction_aps(Zg, lg, Zq, lq), expected[1])


ANY_LABELS = ["10_20_30", "absent_from_gallery", "nan"]


def _any_labels_case(case):
    """(Za, la, Zb, lb) with labels of any values: multiples of 10, a query
    class the gallery lacks, or NaN labels in both views."""
    rng = np.random.default_rng(19)
    Za, Zb = rng.standard_normal((3, 40)), rng.standard_normal((3, 50))
    la, lb = rng.integers(1, 4, 40), rng.integers(1, 4, 50)
    if case == "10_20_30":
        la, lb = 10 * la, 10 * lb
    elif case == "absent_from_gallery":
        la[5] = 7
    else:
        la, lb = la.astype(float), lb.astype(float)
        la[[5, 8]] = np.nan
        lb[[0, 11]] = np.nan
    return Za, la, Zb, lb


@pytest.mark.parametrize("case", ANY_LABELS)
def test_retrieval_matches_the_oracle_on_any_labels(case):
    # relevance is labels_gallery[j] == labels_query[i]: any values, a query
    # class the gallery lacks has AP 0, and a NaN label matches nothing
    Za, la, Zb, lb = _any_labels_case(case)
    res = cross_modal_retrieve(Za, la, Zb, lb)
    np.testing.assert_array_equal(res.ap_ab, dense_direction_aps(Za, la, Zb, lb))
    np.testing.assert_array_equal(res.ap_ba, dense_direction_aps(Zb, lb, Za, la))
    if case == "absent_from_gallery":
        assert res.ap_ab[5] == 0.0
    elif case == "nan":
        assert res.ap_ab[5] == res.ap_ab[8] == res.ap_ba[0] == res.ap_ba[11] == 0.0


def _count_dense_rows(monkeypatch):
    """Route ``_dense_aps`` through a wrapper; return its tally of rows."""
    rows = []
    dense = evaluation._dense_aps

    def counted(terms, columns, totals, before, uncertain, n_gallery):
        rows.append(uncertain.size)
        return dense(terms, columns, totals, before, uncertain, n_gallery)

    monkeypatch.setattr(evaluation, "_dense_aps", counted)
    return rows


@pytest.mark.parametrize("block_bytes", [evaluation._BLOCK_BYTES, 64])
def test_every_row_falls_back_where_longdouble_is_double(block_bytes, monkeypatch):
    # With double's unit roundoff no certificate holds, as on a platform
    # whose longdouble is double: every row with a relevant rank takes the
    # dense row sum, and the APs still equal the oracle's
    monkeypatch.setattr(evaluation, "_UNIT", np.longdouble(2.0**-52))
    monkeypatch.setattr(evaluation, "_BLOCK_BYTES", block_bytes)
    rows = _count_dense_rows(monkeypatch)
    cases = [_adversarial_case(name) for name in ADVERSARIAL]
    cases += [_any_labels_case(case) for case in ANY_LABELS]
    cases += list(_near_tie_draws())
    for Zq, lq, Zg, lg in cases:
        for args in ((Zq, lq, Zg, lg), (Zg, lg, Zq, lq)):
            rows.clear()
            np.testing.assert_array_equal(
                _direction_aps(*args), dense_direction_aps(*args)
            )
            assert sum(rows) == np.count_nonzero(np.isin(args[1], args[3]))


def test_the_dense_sum_takes_a_minority_of_rows(monkeypatch):
    # On well-separated data with about 60 relevant ranks a row, the
    # certificate decides most rows alone, so the oracle tests above reach
    # both the fast sum and the fallback
    rng = np.random.default_rng(21)
    Zq, Zg = rng.standard_normal((4, 300)), rng.standard_normal((4, 600))
    lq, lg = rng.integers(1, 11, 300), rng.integers(1, 11, 600)
    rows = _count_dense_rows(monkeypatch)
    np.testing.assert_array_equal(
        _direction_aps(Zq, lq, Zg, lg), dense_direction_aps(Zq, lq, Zg, lg)
    )
    assert 0 < sum(rows) < 300 // 4


def test_straddling_case_puts_screen_values_either_side_of_zero():
    # the case above only tests negative packed values, and their order
    # against +0.0 and positive ones, if its screen crosses zero
    Zq, _, Zg, _ = _adversarial_case("straddling_zero")
    (_, screen, tol), = _screened_blocks(Zq[:, :1], Zg)
    assert (screen < 0).any() and (screen > 0).any()
    assert (np.abs(screen) <= 2 * tol).all()


# The cases whose norms, screen values, tol and direct distances are all finite
FINITE = [
    name for name in ADVERSARIAL
    if name not in ("overflow", "all_overflow", "overflowed_distances")
]


@pytest.mark.parametrize("name", FINITE)
def test_screen_values_lie_within_tol_of_the_direct_distances(name):
    # |s^ - (d2^ - ||q||^2)| <= e(g), and tol is twice the first-order bound
    # on e(g); the reference is formed in extended precision, in both
    # directions, as 1-NN and cross_modal_retrieve screen them
    Zq, _, Zg, _ = _adversarial_case(name)
    for Z_query, Z_gallery in ((Zq, Zg), (Zg, Zq)):
        gallery = np.arange(Z_gallery.shape[1])
        q_norms = (Z_query.astype(np.longdouble) ** 2).sum(axis=0)
        for rows, screen, tol in _screened_blocks(Z_query, Z_gallery):
            queries = np.arange(Z_query.shape[1])[rows, None]
            d2 = evaluation._squared_distances(Z_query, Z_gallery, queries, gallery)
            assert np.isfinite(screen).all() and np.isfinite(tol).all()
            assert np.isfinite(d2).all()
            error = np.abs(screen - (d2 - q_norms[rows, None]))
            assert (error <= tol[:, None]).all()


def _count_direct_entries(monkeypatch):
    """Route ``_squared_distances`` through a wrapper; return its tally of
    (query, gallery) entries."""
    entries = []
    direct = evaluation._squared_distances

    def counted(Z_query, Z_gallery, qi, gi):
        entries.append(np.broadcast(qi, gi).size)
        return direct(Z_query, Z_gallery, qi, gi)

    monkeypatch.setattr(evaluation, "_squared_distances", counted)
    return entries


def test_knn_evaluates_no_direct_entry_for_single_candidate_queries(monkeypatch):
    # 300 queries against 600 well-separated gallery points span six query
    # blocks, and each query keeps only its nearest point, which the screen's
    # argmin already names
    rng = np.random.default_rng(17)
    Zq, Zg = rng.standard_normal((4, 300)), rng.standard_normal((4, 600))
    lg = rng.integers(1, 4, 600)
    assert evaluation._block_rows(600) < 300
    entries = _count_direct_entries(monkeypatch)
    np.testing.assert_array_equal(
        knn1_classify(Zg, lg, Zq), dense_knn1(Zg, lg, Zq)
    )
    assert entries == []


@pytest.mark.parametrize("name", ["overflow", "all_overflow"])
def test_knn_evaluates_at_most_one_block_of_direct_entries_at_once(
    name, monkeypatch
):
    Zq, _, Zg, lg = _adversarial_case(name)
    rows = evaluation._block_rows(Zg.shape[1])
    entries = _count_direct_entries(monkeypatch)
    knn1_classify(Zg, lg, Zq)
    assert max(entries) <= rows * Zg.shape[1]
    if name == "all_overflow":
        # every entry is kept, so each query block is resolved on its own
        assert sum(entries) == Zq.shape[1] * Zg.shape[1]
        assert len(entries) == -(-Zq.shape[1] // rows)


def _second_least_case(name):
    """(Z_train, Z_test, direct entries 1-NN evaluates) for one named case."""
    rng = np.random.default_rng(22)
    if name == "at_the_limit":
        # In three dimensions tol is 25 (eps (||q||^2 + max ||g||^2) + tiny).
        # Query 0 at the origin: the training column at 1024 e_1 makes its
        # tol 25 * 2^-32 exactly, and column 1, at 2^-16 (5, 5, 0), has the
        # screen value 50 * 2^-32, exactly its limit, so it is kept with
        # column 0.  Query 1 sits on columns 3 and 4, one point twice, so its
        # second-least value is its least.  Query 2 keeps one column.
        Zg = np.array([
            [0.0, 5 * 2.0**-16, 1024.0, 3.0, 3.0],
            [0.0, 5 * 2.0**-16, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        Zq = np.array([[0.0, 3.0, 1000.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        return Zg, Zq, [4]
    if name == "overflowing_row":
        # query 7's squared norm, hence its tol and limit, overflow: it keeps
        # every column and every other query keeps one
        Zg, Zq = rng.standard_normal((4, 60)), rng.standard_normal((4, 50))
        Zq[:, 7] *= 1e160
        return Zg, Zq, [60]
    if name == "nan_screen":
        # -2 q^T g and ||g||^2 overflow to -inf and +inf for query 0 against
        # column 3, whose screen value is then NaN
        Zg, Zq = rng.standard_normal((2, 20)), rng.standard_normal((2, 10))
        Zg[:, 3] = Zq[:, 0] = [1e200, 0.0]
        return Zg, Zq, None
    if name == "one_training_column":
        # +inf, written at the only column, is the second-least value: above
        # every finite limit, so only the overflowing query 2 resolves
        Zg, Zq = rng.standard_normal((3, 1)), rng.standard_normal((3, 6))
        Zq[:, 2] *= 1e160
        return Zg, Zq, [1]
    raise ValueError(name)


@pytest.mark.parametrize(
    "name", ["at_the_limit", "overflowing_row", "nan_screen", "one_training_column"]
)
def test_knn_keeps_only_the_argmin_where_the_second_least_exceeds_the_limit(
    name, monkeypatch
):
    Zg, Zq, expected_entries = _second_least_case(name)
    if name == "nan_screen":
        (_, screen, _), = _screened_blocks(Zq, Zg)
        assert np.isnan(screen[0, 3])
    labels = np.arange(Zg.shape[1])
    entries = _count_direct_entries(monkeypatch)
    # the screen is written in place, never the embeddings
    train, test = Zg.copy(), Zq.copy()
    train.setflags(write=False)
    test.setflags(write=False)
    np.testing.assert_array_equal(
        knn1_classify(train, labels, test), dense_knn1(Zg, labels, Zq)
    )
    np.testing.assert_array_equal(train, Zg)
    np.testing.assert_array_equal(test, Zq)
    if expected_entries is not None:
        assert entries == expected_entries


def test_retrieval_evaluates_the_direct_formula_only_inside_runs(monkeypatch):
    rng = np.random.default_rng(15)
    Za, Zb = rng.standard_normal((4, 50)), rng.standard_normal((4, 60))
    la, lb = rng.integers(1, 4, 50), rng.integers(1, 4, 60)
    entries = _count_direct_entries(monkeypatch)
    cross_modal_retrieve(Za, la, Zb, lb)
    assert sum(entries) == 0
    # one duplicated gallery pair: a run of two in each of the 50 rows that
    # rank Zb, none in the rows that rank Za (its two queries are equal)
    Zb[:, 41] = Zb[:, 8]
    entries.clear()
    res = cross_modal_retrieve(Za, la, Zb, lb)
    assert sum(entries) == 2 * 50
    np.testing.assert_array_equal(res.ap_ab, dense_direction_aps(Za, la, Zb, lb))
    np.testing.assert_array_equal(res.ap_ba, dense_direction_aps(Zb, lb, Za, la))


def test_a_row_that_overflows_is_ranked_as_one_run(monkeypatch):
    # query 7's squared norm overflows, so its tol does: its row is ranked as
    # one run, one direct entry per gallery point in one pass, and every
    # other row needs none
    rng = np.random.default_rng(16)
    Zq, Zg = rng.standard_normal((4, 50)), rng.standard_normal((4, 60))
    Zq[:, 7] *= 1e160
    lq, lg = rng.integers(1, 4, 50), rng.integers(1, 4, 60)
    entries = _count_direct_entries(monkeypatch)
    aps = _direction_aps(Zq, lq, Zg, lg)
    assert entries == [60]
    np.testing.assert_array_equal(aps, dense_direction_aps(Zq, lq, Zg, lg))


def test_runs_are_cut_only_in_rows_in_screen_order():
    # One query at 0 in one dimension, so screen and direct distances are
    # both g^2.  x = g_0^2 = 4 + 16 ulp, y = g_1^2 = 4 and z = g_2^2 = 4 + 8 ulp
    # share their high bits among 1024 gallery points, so packing orders them
    # x, y, z by index.  With tol = 3 ulp the screen gap from y to z exceeds
    # 2 tol, and cutting there alone would rank x before z; the packing
    # margin keeps the three in one run.
    g = 10.0 + np.arange(1024.0)
    g[:3] = 2.0 + np.array([8, 0, 4]) * 2.0**-51
    Zg, Zq = g[None, :], np.zeros((1, 1))
    d2 = g[None, :] ** 2
    assert list(d2[0, :3] - 4.0) == [16 * 2.0**-50, 0.0, 8 * 2.0**-50]
    tol = np.array([3 * 2.0**-50])
    np.testing.assert_array_equal(
        _screen_order(Zq, Zg, slice(0, 1), d2.copy(), tol),
        np.argsort(d2, axis=1, kind="stable"),
    )


def test_rankings_do_not_depend_on_memory_layout():
    Zq, lq, Zg, lg = _adversarial_case("offset_1e6")
    res = cross_modal_retrieve(Zq[:, :80], lq, Zg[:, :80], lg[:80])
    fortran = cross_modal_retrieve(
        np.asfortranarray(Zq[:, :80]), lq, np.asfortranarray(Zg[:, :80]), lg[:80]
    )
    np.testing.assert_array_equal(res.ap_ab, fortran.ap_ab)
    np.testing.assert_array_equal(res.ap_ba, fortran.ap_ba)
    np.testing.assert_array_equal(
        knn1_classify(np.asfortranarray(Zg), lg, np.asfortranarray(Zq)),
        knn1_classify(Zg, lg, Zq),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 64, 65, 500])
def test_packing_ranks_like_a_stable_argsort(n, monkeypatch):
    # Rows of screen values, packed with their column indices and sorted.
    # Gallery sizes 1, 2 and 2^b, 2^b + 1 for the b low bits the index takes.
    rng = np.random.default_rng(13)
    x = rng.exponential(size=n)
    chain = np.empty(n)
    chain[0] = 1.0
    for i in range(1, n):
        chain[i] = np.nextafter(chain[i - 1], np.inf)
    tiny = np.arange(n) * np.nextafter(0.0, 1.0)
    values = np.array([
        x,  # distinct: the packed values decide alone
        np.round(4 * x) / 4,  # exact ties
        chain[rng.permutation(n)],  # one-ulp steps that share their high bits
        np.where(rng.random(n) < 0.3, chain[0], x),  # a tie among distinct values
        tiny[rng.permutation(n)],  # subnormal steps, int64 views 0, 1, 2, ...
        np.zeros(n),  # every distance of zero dimensions
        np.where(rng.random(n) < 0.5, np.inf, x),  # overflowed distances
        np.where(x > 1.0, np.finfo(float).max, np.inf),  # the top of the range
        np.full(n, np.inf),
        -x,  # negative packed values
        -chain[rng.permutation(n)],  # negative one-ulp steps
        -(tiny + 5e-324)[rng.permutation(n)],  # negative subnormal steps
        x - np.median(x),  # straddling zero
        np.round(4 * x) / 4 - 1.0,  # exact ties either side of +0.0
        np.where(rng.random(n) < 0.5, -x, 0.0),  # negatives and +0.0
        np.where(rng.random(n) < 0.5, -np.inf, x),  # -inf among positives
        # NaN from inf - inf, which x86 makes with its sign bit set
        np.where(rng.random(n) < 0.3, np.copysign(np.nan, -1.0), x),
    ])
    finite = np.isfinite(values).all(axis=1)
    packed = values.copy()
    bits, low, margin = _packed_sort(packed)
    # a row's margin is finite exactly when the row is, so a row holding
    # +-inf or NaN is never cut
    np.testing.assert_array_equal(np.isfinite(margin), finite)
    order = bits[finite] & low
    packed, margin = packed[finite], margin[finite, None]
    # the low bits hold each column once
    np.testing.assert_array_equal(
        np.sort(order, axis=1), np.broadcast_to(np.arange(n), order.shape)
    )
    # every packed value lies within the margin of its screen value
    screen = np.take_along_axis(values[finite], order, axis=1)
    assert (np.abs(packed - screen) <= margin).all()
    # where sorted neighbours are more than 2 margin apart, every screen value
    # before them lies below every one after them
    apart = np.diff(packed, axis=1) > 2 * margin
    below = np.maximum.accumulate(screen, axis=1)[:, :-1]
    above = np.minimum.accumulate(screen[:, ::-1], axis=1)[:, -2::-1]
    assert (below < above)[apart].all()
    # where all neighbours are that far apart, the order is the stable
    # ascending order; the distinct rows, x and -x, are always such rows
    decided = apart.all(axis=1)
    assert {0, 9} <= set(np.flatnonzero(finite)[decided])
    np.testing.assert_array_equal(
        order[decided], np.argsort(values[finite][decided], axis=1, kind="stable")
    )
    # rows holding +-inf or NaN are ranked whole: one run, in index order
    runs = []
    monkeypatch.setattr(
        evaluation, "_order_runs", lambda *args: runs.append(args[-1].copy())
    )
    ranked = _screen_order(
        None, None, slice(0, len(values)), values.copy(), np.zeros(len(values))
    )
    np.testing.assert_array_equal(
        ranked[~finite], np.broadcast_to(np.arange(n), ranked[~finite].shape)
    )
    assert all(linked[~finite, :-1].all() for linked in runs)
    assert len(runs) == (n > 1)


def _labelled_calls(labels):
    """Each evaluation function with ``labels`` in the argument under test."""
    Z = np.random.default_rng(14).standard_normal((3, 6))
    good = np.array([1, 2, 1, 2, 1, 2])
    return {
        "labels": lambda: train_linear_classifier(Z, labels),
        "labels_train": lambda: knn1_classify(Z, labels, Z),
        "labels_a": lambda: cross_modal_retrieve(Z, labels, Z, good),
        "labels_b": lambda: cross_modal_retrieve(Z, good, Z, labels),
    }


@pytest.mark.parametrize("name", ["labels", "labels_train", "labels_a", "labels_b"])
@pytest.mark.parametrize(
    "labels",
    [np.ones(7, int), np.ones(5, int), np.ones((1, 6), int), np.ones((6, 1), int)],
    ids=["longer", "shorter", "row", "column"],
)
def test_labels_need_one_entry_per_column(name, labels):
    # longer labels used to pass silently through 1-NN and, past the first
    # query block, through retrieval; shorter ones raised IndexError
    with pytest.raises(ValueError, match=f"^{name} must be one-dimensional"):
        _labelled_calls(labels)[name]()
