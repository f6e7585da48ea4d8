"""Classifier, 1-NN, and retrieval metrics."""

import numpy as np
import pytest

from mvsubspace.evaluation import (
    accuracy,
    average_precision,
    classify,
    cross_modal_retrieve,
    knn1_classify,
    train_linear_classifier,
)


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
