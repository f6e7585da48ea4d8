"""Classifier, 1-NN, and retrieval metrics."""

import numpy as np
import pytest

from mvsubspace.evaluation import (
    _direction_aps,
    accuracy,
    average_precision,
    classify,
    cross_modal_retrieve,
    knn1_classify,
    train_linear_classifier,
)

from helpers import dense_direction_aps, dense_knn1


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
    "gallery_of_one", "zero_dimensions", "no_queries",
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


def test_knn_matches_the_oracle_on_random_near_ties():
    # clustered points with ulp-level perturbations and shared columns, at
    # scales where the screen's cancellation varies from none to severe
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
        np.testing.assert_array_equal(
            knn1_classify(Zg, labels, Zq), dense_knn1(Zg, labels, Zq)
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
