"""Generic building, fitting, embedding, decision rule, and persistence."""

import json

import numpy as np
import pytest

import mvsubspace
from mvsubspace import (
    METHOD_NAMES,
    MethodId,
    ModelSpec,
    MultiViewDataset,
    build,
    embed,
    fit_method,
    load_model,
    make_target,
    make_toy_dataset,
    predict,
    save_model,
    solve,
)
from mvsubspace.data import TARGET_KINDS
from mvsubspace.deep import MlpConfig, TrainerConfig, forward_views, train
from mvsubspace.framework import SUPERVISED_KINDS
from mvsubspace.scatter import ClassStatistics, KernelTerm, symmetrize

from helpers import (
    PENCIL_RTOL,
    center_columns,
    dense_gevd,
    dense_materialize,
    pencil_gap,
    random_dataset,
    views_times_target,
)


def test_assemble_single_view_no_regularizers():
    ds = random_dataset(seed=0, dims=(4,), n=15)
    spec = ModelSpec(target_kind="sigma_invsqrt_onehot", k=2, gamma=1e-3)
    prob = build(spec, ds)
    Xc = center_columns(ds.views[0])
    Yt = make_target(ds, "sigma_invsqrt_onehot")
    np.testing.assert_allclose(prob.objective, Xc @ Yt.T @ Yt @ Xc.T, atol=1e-12)
    np.testing.assert_allclose(
        prob.constraint, Xc @ Xc.T + 1e-3 * np.eye(4), atol=1e-12
    )
    # The statistics build matches the per-term oracle up to summation order.
    _, gram = dense_materialize([KernelTerm("constraint", "blockdiag", 1.0)], [Xc])
    assert pencil_gap(
        prob.constraint, symmetrize(gram + 1e-3 * np.eye(4))
    ) <= PENCIL_RTOL


@pytest.mark.parametrize("rid", ["mean", "representer", "hsic", "cca", "lda", "joint"])
def test_zero_weight_regularizer_is_noop(rid):
    ds = random_dataset(seed=7, dims=(6, 5, 4), classes=3, n=24)
    base = ModelSpec(target_kind="sigma_invsqrt_onehot", k=2)
    with_reg = ModelSpec(
        target_kind="sigma_invsqrt_onehot", k=2, regularizers=((rid, 0.0),)
    )
    pa, pb = build(base, ds), build(with_reg, ds)
    np.testing.assert_array_equal(pa.objective, pb.objective)
    np.testing.assert_array_equal(pa.constraint, pb.constraint)
    assert pa.objective_factor is not None and pb.objective_factor is not None
    assert solve(pa).route == solve(pb).route == "factored"


@pytest.mark.parametrize("kind", TARGET_KINDS, ids=lambda kind: f"{kind}-centered")
def test_target_kernel_matches_the_dense_target(kind):
    ds = random_dataset(seed=8, dims=(6, 5, 4), classes=3, n=24)
    prob = build(ModelSpec(kind, k=2), ds)
    Xt = np.vstack([center_columns(X) for X in ds.views])
    T = make_target(ds, kind)
    assert pencil_gap(prob.objective, Xt @ T.T @ T @ Xt.T) <= PENCIL_RTOL
    assert (prob.objective_factor is not None) == (kind != "identity_n")


@pytest.mark.parametrize("target, regularizers", [
    *((kind, ()) for kind in TARGET_KINDS if kind != "identity_n"),
    ("identity_n", (("hsic", 1.0),)),
    ("identity_n", (("mean", 1.0), ("lda", 0.5))),
])
def test_unlabeled_data_is_refused_where_labels_are_needed(target, regularizers):
    labeled = random_dataset(seed=9)
    ds = MultiViewDataset(labeled.views)
    spec = ModelSpec(target_kind=target, k=2, regularizers=regularizers)
    with pytest.raises(ValueError, match="needs labels"):
        build(spec, ds)
    with pytest.raises(ValueError, match="needs labels"):
        fit_method(spec, ds)


def test_label_free_specs_ignore_the_labels():
    """A spec that reads no labels is built on the one-class indicator, so
    labelled and unlabelled data give the same pencil bit for bit."""
    labeled = random_dataset(seed=10, dims=(5, 4, 3), classes=3, n=24)
    unlabeled = MultiViewDataset(labeled.views)
    regs = (("mean", 1.0), ("representer", 0.3), ("cca", 0.2), ("joint", 1.0))
    spec = ModelSpec("identity_n", k=2, regularizers=regs)
    pa, pb = build(spec, labeled), build(spec, unlabeled)
    np.testing.assert_array_equal(pa.objective, pb.objective)
    np.testing.assert_array_equal(pa.constraint, pb.constraint)


def test_fit_recovers_least_squares_value():
    """The fitted subspace turns the regression residual into a spectrum sum."""
    ds = random_dataset(seed=2, dims=(6,), n=30, classes=3)
    spec = ModelSpec(target_kind="sigma_invsqrt_onehot", k=3, gamma=1e-4)
    model = fit_method(spec, ds)
    Xc = center_columns(ds.views[0])
    Yt = make_target(ds, spec.target_kind)
    P, W = model.projections[0], model.W
    residual = np.linalg.norm(Yt - W.T @ P.T @ Xc) ** 2
    ridge = spec.gamma * np.linalg.norm(P @ W) ** 2
    want = np.linalg.norm(Yt) ** 2 - model.eigenvalues.sum()
    assert residual + ridge == pytest.approx(want, rel=1e-10)


def test_embed_is_consistent_between_fit_and_transform():
    ds = random_dataset(seed=3, dims=(5, 4), n=20)
    spec = ModelSpec(target_kind="sigma_invsqrt_onehot", k=2)
    model = fit_method(spec, ds)
    _, full = embed(model, ds)
    # re-embedding any two columns in isolation must reproduce those columns
    sub = ds.subset([4, 11])
    _, pair = embed(model, sub)
    np.testing.assert_allclose(pair, full[:, [4, 11]], atol=1e-12)


def test_embed_rejects_wrong_dims():
    model = fit_method(
        ModelSpec("identity_n", k=1), random_dataset(seed=3, dims=(5, 4))
    )
    with pytest.raises(ValueError, match="dims"):
        embed(model, random_dataset(seed=3, dims=(5, 3)))


def _scores(model, dataset):
    """W^T on the summed latent point sum_s P_s^T (X_s - mu_s 1^T)."""
    per_view, _ = embed(model, dataset)
    return model.W.T @ sum(per_view)


def test_decision_values_separate_two_classes():
    X = np.array([[-2.0, -1.0, 1.0, 2.0]])
    labels = np.array([1, 1, 2, 2])
    ds = MultiViewDataset((X,), labels)
    model = fit_method(ModelSpec(target_kind="sigma_invsqrt_onehot", k=1), ds)
    np.testing.assert_array_equal(predict(model, ds), labels)
    assert _scores(model, ds).shape == (2, 4)


def test_decision_values_scale_invariant_with_matched_gamma():
    ds = random_dataset(seed=4, dims=(5,), n=18)
    alpha = 3.7
    scaled = MultiViewDataset(
        tuple(alpha * V for V in ds.views), ds.labels
    )
    a = fit_method(ModelSpec("sigma_invsqrt_onehot", k=2, gamma=1e-4), ds)
    b = fit_method(
        ModelSpec("sigma_invsqrt_onehot", k=2, gamma=1e-4 * alpha**2), scaled
    )
    np.testing.assert_allclose(_scores(a, ds), _scores(b, scaled), atol=1e-10)


def test_decision_values_need_labels():
    ds = random_dataset(seed=5)
    model = fit_method(ModelSpec(target_kind="identity_n", k=2), ds)
    with pytest.raises(ValueError, match="supervised"):
        predict(model, ds)


def test_predict_reads_w_on_the_summed_latent_point():
    ds = make_toy_dataset(classes=4, views=3, samples=120, seed=1)
    models = {name: fit_method(MethodId(name, k=3), ds) for name in METHOD_NAMES}
    for model in models.values():
        if model.spec.target_kind not in SUPERVISED_KINDS:
            with pytest.raises(ValueError, match="supervised"):
                predict(model, ds)
            continue
        want = np.argmax(_scores(model, ds), axis=0) + 1
        np.testing.assert_array_equal(predict(model, ds), want)
    # MvLDA's projection is joint, so one view's P_s^T X_s is not its latent
    # point: W read on one view at a time gives other labels
    model = models["MvLDA"]
    per_view, _ = embed(model, ds)
    for z in per_view:
        assert (np.argmax(model.W.T @ z, axis=0) + 1 != predict(model, ds)).any()


def test_save_load_roundtrip(tmp_path):
    ds = random_dataset(seed=6, dims=(4, 3), n=16)
    model = fit_method(ModelSpec("sigma_invsqrt_onehot", k=2, gamma=1e-3), ds)
    save_model(model, tmp_path)
    back = load_model(tmp_path)
    assert back.spec == model.spec
    np.testing.assert_allclose(back.W, model.W, atol=1e-12)
    for Pa, Pb in zip(back.projections, model.projections):
        np.testing.assert_allclose(Pa, Pb, atol=1e-12)
    np.testing.assert_array_equal(predict(back, ds), predict(model, ds))


def _with_input_transform(model_dir, transform):
    """Record ``transform`` in a saved model's meta.json, as older files do."""
    path = model_dir / "meta.json"
    meta = json.loads(path.read_text())
    meta["input_transform"] = transform
    path.write_text(json.dumps(meta))


def test_load_reads_files_that_record_centered_views(tmp_path):
    ds = random_dataset(seed=6, dims=(4, 3), n=16)
    model = fit_method(ModelSpec("sigma_invsqrt_onehot", k=2), ds)
    save_model(model, tmp_path)
    _with_input_transform(tmp_path, "centered")
    back = load_model(tmp_path)
    assert back.spec == model.spec
    np.testing.assert_array_equal(predict(back, ds), predict(model, ds))


def test_load_refuses_a_model_fitted_on_raw_views(tmp_path):
    model = fit_method(
        ModelSpec("identity_n", k=1), random_dataset(seed=6, dims=(4, 3), n=16)
    )
    save_model(model, tmp_path)
    _with_input_transform(tmp_path, "raw")
    with pytest.raises(ValueError, match="unsupported input transform 'raw'"):
        load_model(tmp_path)


@pytest.mark.filterwarnings("error")
def test_load_refuses_files_of_the_wrong_shape(tmp_path):
    ds = random_dataset(seed=6, dims=(4, 3), n=16)
    model = fit_method(ModelSpec("sigma_invsqrt_onehot", k=2), ds)
    save_model(model, tmp_path)
    (tmp_path / "P_2.csv").write_text("")
    with pytest.raises(ValueError, match="P_2.csv: empty file"):
        load_model(tmp_path)
    save_model(model, tmp_path)
    W_csv = tmp_path / "W.csv"
    W_csv.write_text(W_csv.read_text().splitlines(keepends=True)[0])
    with pytest.raises(ValueError, match=r"W.csv: expected shape \(2, None\)"):
        load_model(tmp_path)


@pytest.mark.parametrize(
    "means",
    [
        lambda mu: [mu[0][:2]] + mu[1:],  # means[0] cut to 2 of its 4 entries
        lambda mu: mu[:1],  # one view's means missing
        lambda mu: [mu[0][:3] + [None]] + mu[1:],  # a NaN entry
        lambda mu: [[mu[0]]] + mu[1:],  # a matrix in place of a vector
        lambda mu: [mu[0][:2] + [[1.0]]] + mu[1:],  # ragged
    ],
)
def test_load_refuses_means_that_disagree_with_dims(tmp_path, means):
    ds = random_dataset(seed=6, dims=(4, 3), n=16)
    save_model(fit_method(ModelSpec("sigma_invsqrt_onehot", k=2), ds), tmp_path)
    path = tmp_path / "meta.json"
    meta = json.loads(path.read_text())
    meta["means"] = means(meta["means"])
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="meta.json: means"):
        load_model(tmp_path)


def test_save_overwrites_atomically(tmp_path):
    ds = random_dataset(seed=7, dims=(4, 3), n=16)
    model = fit_method(ModelSpec("sigma_invsqrt_onehot", k=2), ds)
    save_model(model, tmp_path)
    save_model(model, tmp_path)  # second write over the same directory
    back = load_model(tmp_path)
    np.testing.assert_allclose(back.W, model.W, atol=1e-12)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="unknown target kind"):
        ModelSpec(target_kind="one_hot", k=1)
    with pytest.raises(ValueError, match="k must be"):
        ModelSpec(target_kind="identity_n", k=0)
    with pytest.raises(ValueError, match="gamma"):
        ModelSpec(target_kind="identity_n", k=1, gamma=-1.0)
    with pytest.raises(ValueError, match="unknown regularizer"):
        ModelSpec(target_kind="identity_n", k=1, regularizers=(("ridge", 1.0),))


@pytest.mark.parametrize("value", [-0.5, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field, keys",
    [
        ("gamma", lambda w: {"gamma": w}),
        ("lam", lambda w: {"lam": w}),
        ("regularizer weight for 'hsic'", lambda w: {"regularizers": (("hsic", w),)}),
    ],
)
def test_model_spec_rejects_negative_and_non_finite_weights(field, keys, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and nonnegative"):
        ModelSpec(target_kind="sigma_invsqrt_onehot", k=1, **keys(value))


@pytest.mark.parametrize(
    "target, regularizers, route",
    [
        ("sigma_invsqrt_onehot", (), "factored"),
        ("centered_onehot", (("mean", 1.0), ("hsic", 0.5)), "factored"),
        ("centered_normalized_label", (("representer", 0.3),), "factored"),
        ("sigma_invsqrt_onehot", (("cca", 0.3),), "full"),
        ("sigma_invsqrt_onehot", (("lda", 1.0),), "full"),
        ("identity_n", (), "full"),
    ],
)
def test_fit_matches_the_full_spectrum_oracle(target, regularizers, route):
    """A supervised target term without an objective-side regularizer carries
    the objective's factor and is solved in its rank."""
    ds = random_dataset(seed=7, dims=(6, 5, 4), classes=3, n=24)
    spec = ModelSpec(target_kind=target, k=2, gamma=1e-3, regularizers=regularizers)
    prob = build(spec, ds)
    assert (prob.objective_factor is not None) == (route == "factored")
    assert solve(prob).route == route
    want = dense_gevd(prob)
    got = fit_method(spec, ds).eigenvalues
    np.testing.assert_allclose(got, want.eigenvalues, rtol=1e-12, atol=1e-12)


# W comes from the class sums (or, for identity_n, the class-centred copy
# and the class sums), not one product of the stacked views; it agrees with
# the stacked oracle to this share of its largest entry.
W_RTOL = 1e-13

# (dims, n, classes): n above every d, d above n, one view, and the
# benchmark's tall and wide shapes.
W_SHAPES = {
    "n>d": ((6, 5, 4), 40, 3),
    "d>n": ((9, 8, 7), 12, 3),
    "v=1": ((6,), 20, 3),
    "tall": ((50, 50, 50), 1500, 10),
    "wide": ((250, 250, 250), 250, 10),
}


def _stacked_weights(model, dataset):
    """P^T X H T^T through the stacked oracle."""
    return np.vstack(model.projections).T @ views_times_target(dataset, model.spec)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", W_SHAPES)
@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_weights_match_the_stacked_oracle(kind, shape, order):
    dims, n, classes = W_SHAPES[shape]
    ds = random_dataset(seed=n + len(dims), dims=dims, classes=classes, n=n)
    ds = MultiViewDataset(tuple(np.asarray(X, order=order) for X in ds.views), ds.labels)
    assert ds.views[0].flags[f"{order}_CONTIGUOUS"]
    model = fit_method(ModelSpec(kind, k=2, gamma=1e-3), ds)
    assert pencil_gap(model.W, _stacked_weights(model, ds)) <= W_RTOL


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_means_are_owned_contiguous_view_means(kind, order):
    """``embed`` broadcasts each mean over a view, so the means are arrays of
    their own, not strided views of the statistics."""
    base = random_dataset(seed=48, dims=(6, 1, 4), classes=3, n=40)
    ds = MultiViewDataset(
        tuple(np.asarray(X + 1e3, order=order) for X in base.views), base.labels
    )
    model = fit_method(ModelSpec(kind, k=1, gamma=1e-3), ds)
    for mu, X in zip(model.means, ds.views, strict=True):
        assert mu.flags.c_contiguous and mu.flags.owndata
        assert np.abs(mu - X.mean(axis=1)).max() <= 1e-14 * np.abs(X).max()


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_a_fit_reads_its_samples_once(name, monkeypatch):
    """One ClassStatistics per fit gives the pencil, the means and W."""
    made = []
    construct = ClassStatistics.__init__

    def counting(self, *args, **kwargs):
        made.append(name)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(ClassStatistics, "__init__", counting)
    fit_method(MethodId(name, k=2), random_dataset(seed=49, dims=(5, 4, 3), n=30))
    assert len(made) == 1


def test_deep_training_reads_its_features_once_per_epoch(monkeypatch):
    """The final model is packaged from the last epoch's statistics."""
    made = []
    construct = ClassStatistics.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(ClassStatistics, "__init__", counting)
    ds = random_dataset(seed=50, dims=(4, 3), n=30, shift=1.0)
    train(ds, MethodId("MvDA", k=2, gamma=1e-3), MlpConfig(hidden=(4,), out_dim=3),
          TrainerConfig(epochs=5))
    assert len(made) == 5


def test_deep_model_weights_match_the_stacked_oracle():
    ds = random_dataset(seed=43, dims=(4, 3), n=30, shift=1.0)
    mlp = MlpConfig(hidden=(4,), out_dim=3)
    nets, model, _ = train(ds, MethodId("MvOPLS", k=2, gamma=1e-3), mlp,
                           TrainerConfig(epochs=3))
    features = forward_views(nets, list(ds.views), mlp.activation)
    feature_ds = MultiViewDataset(tuple(features), ds.labels)
    assert pencil_gap(model.W, _stacked_weights(model, feature_ds)) <= W_RTOL


@pytest.mark.parametrize("kind", TARGET_KINDS)
def test_weights_of_offset_views_are_as_accurate_as_the_stacked_oracle(kind):
    """Each view is centred before it is projected, so a large common mean
    costs W no more accuracy than the stacked construction loses, up to the
    rounding of the products (W_RTOL of the reference's largest entry)."""
    base = random_dataset(seed=44, dims=(6, 5, 4), classes=3, n=40)
    ds = MultiViewDataset(tuple(X + 1e6 for X in base.views), base.labels)
    model = fit_method(ModelSpec(kind, k=2, gamma=1e-3), ds)
    P = np.vstack(model.projections).astype(np.longdouble)
    views = [X.astype(np.longdouble) for X in ds.views]
    ref = P.T @ np.vstack([X - X.mean(axis=1, keepdims=True) for X in views])
    if kind != "identity_n":
        ref = ref @ make_target(ds, kind).T.astype(np.longdouble)
    got = np.abs(model.W - ref).max()
    oracle = np.abs(_stacked_weights(model, ds) - ref).max()
    assert got <= oracle + W_RTOL * np.abs(ref).max()


def _per_view_weights(model, dataset):
    """W of an identity_n fit by the per-view formula,
    sum_s P_s^T (X_s - mu_s 1^T), each view centred by the model's mean."""
    return sum(P.T @ (X - mu[:, None])
               for P, mu, X in zip(model.projections, model.means, dataset.views))


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("shape", ["n>d", "tall", "wide"])
@pytest.mark.parametrize("name", ["MCCA", "MLDA", "GMA"])
def test_identity_n_weights_from_x_w_match_the_per_view_formula(name, shape, offset):
    """W = P^T X_w + (P^T S Sigma^-1) Y, from the statistics' class-centred
    copy, is the per-view formula in exact arithmetic.  In floating point
    the two agree within 1e-13 of the largest entry of |P|^T |X_c|, the
    scale of the terms both sum; with every view offset by 1e6 too, since
    both subtract the same mean before any product."""
    dims, n, classes = W_SHAPES[shape]
    base = random_dataset(seed=n + 3, dims=dims, classes=classes, n=n)
    ds = MultiViewDataset(tuple(X + offset for X in base.views), base.labels)
    model = fit_method(MethodId(name, k=3), ds)
    want = _per_view_weights(model, ds)
    centred = np.vstack([np.abs(X - mu[:, None]) for X, mu in zip(ds.views, model.means)])
    scale = (np.abs(np.vstack(model.projections)).T @ centred).max()
    assert np.abs(model.W - want).max() <= 1e-13 * scale


def test_every_public_name_resolves_once():
    names = mvsubspace.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mvsubspace, name)] == []
