"""Generic assembly, fitting, embedding, decision rule, and persistence."""

import numpy as np
import pytest

from mvsubspace import (
    ModelSpec,
    MultiViewDataset,
    assemble,
    decision_values,
    embed,
    fit,
    load_model,
    make_target,
    predict,
    save_model,
    solve,
)
from mvsubspace.data import center_columns
from mvsubspace.scatter import KernelTerm, symmetrize

from helpers import dense_gevd, dense_materialize, random_dataset


def test_assemble_single_view_no_regularizers():
    ds = random_dataset(seed=0, dims=(4,), n=15)
    spec = ModelSpec(target_kind="sigma_invsqrt_onehot", k=2, gamma=1e-3)
    prob = assemble(ds, spec)
    Xc = center_columns(ds.views[0])
    Yt = make_target(ds, "sigma_invsqrt_onehot").values
    np.testing.assert_allclose(prob.objective, Xc @ Yt.T @ Yt @ Xc.T, atol=1e-12)
    np.testing.assert_allclose(
        prob.constraint, Xc @ Xc.T + 1e-3 * np.eye(4), atol=1e-12
    )
    # Adding gamma in place keeps the constraint bit-identical to adding
    # gamma * I to a copy.
    _, gram = dense_materialize([KernelTerm("constraint", "blockdiag", 1.0)], [Xc])
    assert np.array_equal(
        prob.constraint, symmetrize(symmetrize(gram + 1e-3 * np.eye(4)))
    )


def test_zero_weight_regularizer_is_noop():
    ds = random_dataset(seed=1)
    base = ModelSpec(target_kind="sigma_invsqrt_onehot", k=2)
    with_reg = ModelSpec(
        target_kind="sigma_invsqrt_onehot", k=2, regularizers=(("mean", 0.0),)
    )
    pa, pb = assemble(ds, base), assemble(ds, with_reg)
    np.testing.assert_allclose(pa.objective, pb.objective, atol=1e-12)
    np.testing.assert_allclose(pa.constraint, pb.constraint, atol=1e-12)


def test_fit_recovers_least_squares_value():
    """The fitted subspace turns the regression residual into a spectrum sum."""
    ds = random_dataset(seed=2, dims=(6,), n=30, classes=3)
    spec = ModelSpec(target_kind="sigma_invsqrt_onehot", k=3, gamma=1e-4)
    model = fit(ds, spec)
    Xc = center_columns(ds.views[0])
    Yt = make_target(ds, spec.target_kind).values
    P, W = model.projections[0], model.W
    residual = np.linalg.norm(Yt - W.T @ P.T @ Xc) ** 2
    ridge = spec.gamma * np.linalg.norm(P @ W) ** 2
    want = np.linalg.norm(Yt) ** 2 - model.eigenvalues.sum()
    assert residual + ridge == pytest.approx(want, rel=1e-10)


def test_embed_is_consistent_between_fit_and_transform():
    ds = random_dataset(seed=3, dims=(5, 4), n=20)
    spec = ModelSpec(target_kind="sigma_invsqrt_onehot", k=2)
    model = fit(ds, spec)
    _, full = embed(model, ds)
    # re-embedding any two columns in isolation must reproduce those columns
    sub = ds.subset([4, 11])
    _, pair = embed(model, sub)
    np.testing.assert_allclose(pair, full[:, [4, 11]], atol=1e-12)


def test_embed_rejects_wrong_dims():
    model = fit(random_dataset(seed=3, dims=(5, 4)), ModelSpec("identity_n", k=1))
    with pytest.raises(ValueError, match="dims"):
        embed(model, random_dataset(seed=3, dims=(5, 3)))


def test_decision_values_separate_two_classes():
    X = np.array([[-2.0, -1.0, 1.0, 2.0]])
    labels = np.array([1, 1, 2, 2])
    ds = MultiViewDataset((X,), labels)
    model = fit(ds, ModelSpec(target_kind="sigma_invsqrt_onehot", k=1))
    np.testing.assert_array_equal(predict(model, ds), labels)
    scores = decision_values(model, ds)
    assert scores.shape == (2, 4)
    # symmetric data: class scores mirror each other
    np.testing.assert_allclose(scores[0], scores[1, ::-1], atol=1e-10)


def test_decision_values_scale_invariant_with_matched_gamma():
    ds = random_dataset(seed=4, dims=(5,), n=18)
    alpha = 3.7
    scaled = MultiViewDataset(
        tuple(alpha * V for V in ds.views), ds.labels
    )
    a = fit(ds, ModelSpec("sigma_invsqrt_onehot", k=2, gamma=1e-4))
    b = fit(scaled, ModelSpec("sigma_invsqrt_onehot", k=2, gamma=1e-4 * alpha**2))
    np.testing.assert_allclose(
        decision_values(a, ds), decision_values(b, scaled), atol=1e-10
    )


def test_decision_values_need_labels():
    ds = random_dataset(seed=5)
    model = fit(ds, ModelSpec(target_kind="identity_n", k=2))
    with pytest.raises(ValueError, match="supervised"):
        decision_values(model, ds)


def test_save_load_roundtrip(tmp_path):
    ds = random_dataset(seed=6, dims=(4, 3), n=16)
    model = fit(ds, ModelSpec("sigma_invsqrt_onehot", k=2, gamma=1e-3))
    save_model(model, tmp_path)
    back = load_model(tmp_path)
    assert back.spec == model.spec
    np.testing.assert_allclose(back.W, model.W, atol=1e-12)
    for Pa, Pb in zip(back.projections, model.projections):
        np.testing.assert_allclose(Pa, Pb, atol=1e-12)
    np.testing.assert_array_equal(predict(back, ds), predict(model, ds))


def test_save_overwrites_atomically(tmp_path):
    ds = random_dataset(seed=7, dims=(4, 3), n=16)
    model = fit(ds, ModelSpec("sigma_invsqrt_onehot", k=2))
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
    with pytest.raises(ValueError, match="unknown input transform"):
        ModelSpec(target_kind="identity_n", k=1, input_transform="scaled")


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
    """Without an objective-side regularizer the assembled objective G G^T
    carries its factor (G, I) and is solved in its rank."""
    ds = random_dataset(seed=7, dims=(6, 5, 4), classes=3, n=24)
    spec = ModelSpec(target_kind=target, k=2, gamma=1e-3, regularizers=regularizers)
    prob = assemble(ds, spec)
    assert (prob.objective_factor is not None) == (route == "factored")
    assert solve(prob).route == route
    want = dense_gevd(prob)
    got = fit(ds, spec).eigenvalues
    np.testing.assert_allclose(got, want.eigenvalues, rtol=1e-12, atol=1e-12)
