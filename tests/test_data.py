"""Tests for datasets, label indicators, targets, PCA, and splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsubspace import (
    MultiViewDataset,
    build_indicator,
    load_dataset,
    make_target,
    pca_reduce,
    split_dataset,
)
from mvsubspace.scatter import label_kernels
from mvsubspace.toy import make_toy_dataset, save_dataset

from helpers import (
    center_columns,
    class_average_matrix,
    dense_label_kernels,
    densify,
    random_dataset,
    sigma_matrix,
)


def test_center_columns_small():
    X = np.array([[2.0, 4.0], [0.0, 6.0]])
    np.testing.assert_array_equal(
        center_columns(X), np.array([[-1.0, 1.0], [-3.0, 3.0]])
    )


def test_centering_matrix_properties():
    # the one-class indicator's centering kernel is the plain H_n
    H = densify(label_kernels(build_indicator(np.ones(5, dtype=int)))["centering"])
    np.testing.assert_allclose(H @ np.ones(5), np.zeros(5), atol=1e-15)
    np.testing.assert_allclose(H @ H, H, atol=1e-15)
    X = np.random.default_rng(1).standard_normal((3, 5))
    np.testing.assert_allclose(X @ H, center_columns(X), atol=1e-14)


def test_center_columns_idempotent():
    X = np.random.default_rng(2).standard_normal((4, 9))
    Xc = center_columns(X)
    np.testing.assert_allclose(center_columns(Xc), Xc, atol=1e-14)


def test_indicator_oracle():
    ind = build_indicator(np.array([1, 2, 1]))
    np.testing.assert_array_equal(ind.Y, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(ind.counts, [2, 1])
    Q = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    np.testing.assert_allclose(class_average_matrix(ind), Q)
    np.testing.assert_allclose(
        densify(label_kernels(ind)["within"]), np.eye(3) - Q, atol=1e-15
    )
    np.testing.assert_array_equal(sigma_matrix(ind), ind.Y @ ind.Y.T)
    np.testing.assert_array_equal(sigma_matrix(ind), [[2.0, 0.0], [0.0, 1.0]])


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=40)
)
@settings(max_examples=200, deadline=None)
def test_indicator_algebra(raw):
    """Q = I - within is a symmetric doubly-smoothing kernel: Q1 = 1, QQ = Q,
    HQH = Q - 1/n = between; every kernel matches its dense oracle."""
    # remap arbitrary ints onto the contiguous 1..c the package requires
    labels = np.unique(np.asarray(raw), return_inverse=True)[1] + 1
    n = labels.size
    ind = build_indicator(labels)
    K = {name: densify(k) for name, k in label_kernels(ind).items()}
    Q = np.eye(n) - K["within"]
    np.testing.assert_allclose(Q, Q.T, atol=1e-12)
    np.testing.assert_allclose(Q @ np.ones(n), np.ones(n), atol=1e-10)
    np.testing.assert_allclose(Q @ Q, Q, atol=1e-10)
    H = K["centering"]
    np.testing.assert_allclose(H @ Q @ H, Q - 1.0 / n, atol=1e-10)
    np.testing.assert_allclose(K["between"], Q - 1.0 / n, atol=1e-10)
    for name, oracle in dense_label_kernels(ind).items():
        np.testing.assert_allclose(K[name], oracle, atol=1e-10, err_msg=name)


def test_indicator_rejects_bad_labels():
    with pytest.raises(ValueError, match="contiguous"):
        build_indicator(np.array([1, 3]))
    with pytest.raises(ValueError, match="integers"):
        build_indicator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="labels must not be empty"):
        build_indicator(np.array([], dtype=int))


def test_make_target_kinds():
    ds = MultiViewDataset((np.eye(3),), np.array([1, 2, 1]))
    Y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    np.testing.assert_allclose(
        make_target(ds, "centered_onehot"), center_columns(Y), atol=1e-15
    )
    np.testing.assert_allclose(
        make_target(ds, "sigma_invsqrt_onehot"),
        np.array([[2.0 ** -0.5, 0.0, 2.0 ** -0.5], [0.0, 1.0, 0.0]]),
    )
    np.testing.assert_array_equal(make_target(ds, "identity_n"), np.eye(3))
    # class-centered soft labels: rows of Sigma^-1 Y minus their column means
    Yn = Y / np.array([2.0, 1.0])[:, None]
    np.testing.assert_allclose(
        make_target(ds, "centered_normalized_label"),
        Yn - Yn.mean(axis=0),
        atol=1e-15,
    )


def test_make_target_needs_labels():
    ds = MultiViewDataset((np.eye(3),))
    with pytest.raises(ValueError, match="needs labels"):
        make_target(ds, "centered_onehot")
    with pytest.raises(ValueError, match="unknown target kind"):
        make_target(ds, "onehot")


def test_dataset_validation():
    with pytest.raises(ValueError, match="share the sample count"):
        MultiViewDataset((np.zeros((2, 4)), np.zeros((2, 5))))
    with pytest.raises(ValueError, match="at least two samples"):
        MultiViewDataset((np.zeros((2, 1)),))
    with pytest.raises(ValueError, match="non-finite"):
        MultiViewDataset((np.array([[np.nan, 0.0]]),))
    with pytest.raises(ValueError, match="label count"):
        MultiViewDataset((np.zeros((2, 4)),), np.array([1, 2]))
    with pytest.raises(ValueError, match="view 1 has no features"):
        MultiViewDataset((np.zeros((0, 4)), np.zeros((5, 4))))
    with pytest.raises(ValueError, match="view 2 has no features"):
        MultiViewDataset((np.zeros((3, 4)), np.zeros((0, 4))))


def test_dataset_subset():
    ds = random_dataset(seed=5, n=12)
    sub = ds.subset([3, 1, 7])
    assert sub.n_samples == 3
    np.testing.assert_array_equal(sub.labels, ds.labels[[3, 1, 7]])
    for V, full in zip(sub.views, ds.views):
        np.testing.assert_array_equal(V, full[:, [3, 1, 7]])


def test_pca_keeps_tied_components():
    # two exactly equal variance directions: an energy cut must keep both
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    Z = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    ds = MultiViewDataset((Q @ Z,))
    red, reducers = pca_reduce(ds, 0.95)
    assert red.dims == (2,)
    P = reducers[0].components
    np.testing.assert_allclose(P.T @ P, np.eye(2), atol=1e-12)


def test_pca_drops_null_directions():
    X = np.array([[1.0, -1.0, 2.0], [2.0, -2.0, 4.0]])  # rank one after centering
    red, _ = pca_reduce(MultiViewDataset((X,)), 1.0)
    assert red.dims == (1,)


def test_pca_transform_matches_reduction():
    ds = random_dataset(seed=9, dims=(6, 4), n=20)
    red, reducers = pca_reduce(ds, 0.9)
    for Xr, reducer, X in zip(red.views, reducers, ds.views):
        np.testing.assert_allclose(reducer.transform(X), Xr, atol=1e-12)


def test_pca_rejects_bad_energy():
    ds = random_dataset(seed=9)
    with pytest.raises(ValueError, match="energy"):
        pca_reduce(ds, 0.0)


def test_split_counts_and_disjointness():
    labels = np.array([1] * 6 + [2] * 4)
    ds = MultiViewDataset((np.arange(10.0)[None, :],), labels)
    train, test = split_dataset(ds, 0.5, seed=0)
    assert [int(np.sum(train.labels == r)) for r in (1, 2)] == [3, 2]
    got = np.sort(np.concatenate([train.views[0][0], test.views[0][0]]))
    np.testing.assert_array_equal(got, np.arange(10.0))


def test_split_is_deterministic():
    ds = random_dataset(seed=3, n=30)
    a_train, _ = split_dataset(ds, 0.3, seed=11)
    b_train, _ = split_dataset(ds, 0.3, seed=11)
    np.testing.assert_array_equal(a_train.views[0], b_train.views[0])


def test_unlabeled_split_is_the_one_class_split():
    n = 11
    unlabeled = MultiViewDataset((np.arange(float(n))[None, :],))
    one_class = MultiViewDataset(unlabeled.views, np.ones(n, dtype=int))
    for seed in range(5):
        train, test = split_dataset(unlabeled, 0.3, seed=seed)
        assert (train.n_samples, test.n_samples) == (3, 8)
        assert train.labels is None and test.labels is None
        want_train, want_test = split_dataset(one_class, 0.3, seed=seed)
        np.testing.assert_array_equal(train.views[0], want_train.views[0])
        np.testing.assert_array_equal(test.views[0], want_test.views[0])


def test_split_rejects_single_sample_class():
    ds = MultiViewDataset((np.zeros((1, 3)),), np.array([1, 1, 2]))
    with pytest.raises(ValueError, match="class 2 has a single sample"):
        split_dataset(ds, 0.5)
    with pytest.raises(ValueError, match="train_fraction"):
        split_dataset(random_dataset(), 1.0)


def test_save_load_roundtrip(tmp_path):
    ds = make_toy_dataset(classes=2, views=2, samples=20, dims=(3, 4), seed=1)
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert back.dims == ds.dims
    np.testing.assert_array_equal(back.labels, ds.labels)
    for V, W in zip(back.views, ds.views):
        np.testing.assert_allclose(V, W, atol=1e-12)


@pytest.mark.parametrize("dims", [(0, 5), (5, -1)])
def test_toy_views_need_a_feature(dims):
    with pytest.raises(ValueError, match="at least one feature"):
        make_toy_dataset(classes=2, views=2, samples=20, dims=dims)


def test_load_remaps_noncontiguous_labels(tmp_path):
    np.savetxt(tmp_path / "view_1.csv", np.random.default_rng(0).standard_normal((3, 2)), delimiter=",")
    (tmp_path / "labels.csv").write_text("7\n3\n7\n")
    ds = load_dataset(tmp_path)
    np.testing.assert_array_equal(ds.labels, [2, 1, 2])
    assert ds.label_map == {1: 3, 2: 7}
    # negative and widely gapped values
    (tmp_path / "labels.csv").write_text("1000\n-7\n40\n")
    ds = load_dataset(tmp_path)
    np.testing.assert_array_equal(ds.labels, [3, 1, 2])
    assert ds.labels.dtype == np.int64
    assert ds.label_map == {1: -7, 2: 40, 3: 1000}


def test_load_rejects_gaps_and_mismatches(tmp_path):
    np.savetxt(tmp_path / "view_1.csv", np.ones((3, 2)), delimiter=",")
    np.savetxt(tmp_path / "view_3.csv", np.ones((3, 2)), delimiter=",")
    with pytest.raises(ValueError, match="numbered consecutively"):
        load_dataset(tmp_path)
    (tmp_path / "view_3.csv").unlink()
    np.savetxt(tmp_path / "view_2.csv", np.ones((4, 2)), delimiter=",")
    with pytest.raises(ValueError, match="view_2.csv has 4 rows"):
        load_dataset(tmp_path)
    np.savetxt(tmp_path / "view_2.csv", np.ones((3, 2)), delimiter=",")
    (tmp_path / "labels.csv").write_text("1\nx\n2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(tmp_path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n\n", "  \r\n\t\n", "# header\n\n"])
def test_load_names_an_empty_view_without_a_numpy_warning(tmp_path, text):
    np.savetxt(tmp_path / "view_1.csv", np.ones((3, 2)), delimiter=",")
    (tmp_path / "view_2.csv").write_text(text)
    with pytest.raises(ValueError, match="view_2.csv: empty file"):
        load_dataset(tmp_path)


def test_load_missing_directory():
    with pytest.raises(ValueError, match="does not exist"):
        load_dataset("/nonexistent/place")
