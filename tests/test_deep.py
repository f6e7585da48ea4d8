"""Per-view networks, the spectral loss, and its analytic gradients."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from mvsubspace import MethodId, MultiViewDataset, NumericalError, build
from mvsubspace.deep import (
    MlpConfig,
    _Workspace,
    _loss_and_grads,
    _solve_with_retry,
    TrainerConfig,
    forward,
    forward_views,
    init_networks,
    load_networks,
    loss_gradient,
    save_networks,
    spectral_loss,
    train,
)
from mvsubspace.gevd import solve
from mvsubspace.toy import make_toy_dataset

from helpers import fd_worst_violation, loss_only, random_dataset


PLAIN_METHODS = (
    "MCCA", "MvOPLS", "MvLDA", "MvDA", "MvMDA", "MLDA", "GMA", "MvDA_CCA"
)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("name", PLAIN_METHODS)
def test_gradients_match_finite_differences(name, activation):
    ds = random_dataset(seed=17, dims=(4, 3), classes=3, n=9, shift=0.8)
    method = MethodId(name, k=2, gamma=1e-3, lam=0.3)
    mlp = MlpConfig(hidden=(5,), out_dim=4, activation=activation, seed=11)
    assert fd_worst_violation(ds, method, mlp, activation) <= 0.0


def _representer_fd_violation(samples, out_dim, seed, activation):
    """The coupling-grid gradient needs well-conditioned feature Grams.

    Spread-out weights and biases keep the Gram of the features far from
    singular, where the finite-difference step would dominate the error.
    """
    ds = make_toy_dataset(
        classes=3, views=2, samples=samples, dims=(4, 3), noise=1.0,
        separation=6.0, seed=seed,
    )
    method = MethodId("MvDA_VC", k=2, gamma=1e-3, lam=0.3)
    mlp = MlpConfig(
        hidden=(6,), out_dim=out_dim, activation=activation, seed=seed
    )

    def spread(nets):
        bump = np.random.default_rng(seed + 100)
        for net in nets:
            for i in range(len(net.weights)):
                net.weights[i] *= 2.0
                net.biases[i] = net.biases[i] + bump.standard_normal(
                    net.biases[i].shape
                )

    return fd_worst_violation(ds, method, mlp, activation, mutate=spread)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("seed", [2, 3])
def test_representer_gradients_match_finite_differences(seed, activation):
    # more units than samples: the n x n Gram side of the pseudo-inverse
    assert _representer_fd_violation(6, 12, seed, activation) <= 0.0


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("seed", [2, 3])
def test_row_side_representer_gradients_match_finite_differences(
    seed, activation
):
    # more samples than units: the d x d push-through side
    assert _representer_fd_violation(30, 3, seed, activation) <= 0.0


def test_loss_is_negated_top_k_eigenvalue_sum():
    ds = random_dataset(seed=23, dims=(4, 3), n=12)
    method = MethodId("MvOPLS", k=2, gamma=1e-3)
    mlp = MlpConfig(hidden=(4,), out_dim=3)
    nets = init_networks(ds, mlp)
    features = forward_views(nets, list(ds.views), "tanh")
    loss, solution = spectral_loss(features, ds.labels, method)

    prob = build(method, MultiViewDataset(tuple(features), ds.labels))
    eigvals = scipy.linalg.eigh(prob.objective, prob.constraint, eigvals_only=True)
    want = -np.sort(eigvals)[::-1][:2].sum()
    assert loss == pytest.approx(want, rel=1e-9)
    assert loss == -solution.eigenvalues.sum()


def test_full_k_loss_is_whitened_trace():
    ds = random_dataset(seed=29, dims=(3, 2), n=10)
    method = MethodId("MvOPLS", k=1, gamma=1e-2)
    mlp = MlpConfig(hidden=(3,), out_dim=2)
    nets = init_networks(ds, mlp)
    features = forward_views(nets, list(ds.views), "tanh")
    full = replace(method, k=4)  # 2 views x out 2
    loss, _ = spectral_loss(features, ds.labels, full)
    prob = build(method, MultiViewDataset(tuple(features), ds.labels))
    want = -np.trace(np.linalg.solve(prob.constraint, prob.objective))
    assert loss == pytest.approx(want, rel=1e-9)


def test_loss_invariant_to_feature_rotation():
    ds = random_dataset(seed=31, dims=(4, 3), n=12)
    method = MethodId("MvOPLS", k=2, gamma=1e-3)
    nets = init_networks(ds, MlpConfig(hidden=(4,), out_dim=3))
    features = forward_views(nets, list(ds.views), "tanh")
    base, _ = spectral_loss(features, ds.labels, method)
    R = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    rotated = [R @ features[0], features[1]]
    got, _ = spectral_loss(rotated, ds.labels, method)
    assert got == pytest.approx(base, rel=1e-10)


def test_single_epoch_is_the_initial_model():
    ds = random_dataset(seed=37, dims=(4, 3), n=15, shift=1.0)
    method = MethodId("MvOPLS", k=2, gamma=1e-3)
    mlp = MlpConfig(hidden=(4,), out_dim=3, seed=5)
    nets, model, history = train(ds, method, mlp, TrainerConfig(epochs=1))
    assert len(history) == 1
    init = init_networks(ds, mlp)
    for got, want in zip(nets, init):
        for a, b in zip(got.weights, want.weights):
            np.testing.assert_array_equal(a, b)
    assert history[0] == loss_only(init, ds, method, "tanh")
    assert model.eigenvalues.sum() == pytest.approx(-history[0])


def test_history_matches_returned_weights():
    ds = random_dataset(seed=41, dims=(4, 3), n=15, shift=1.0)
    method = MethodId("MvOPLS", k=2, gamma=1e-3)
    nets, model, history = train(
        ds, method, MlpConfig(hidden=(4,), out_dim=3), TrainerConfig(epochs=7)
    )
    assert len(history) == 7
    assert history[-1] == loss_only(nets, ds, method, "tanh")
    assert model.eigenvalues.sum() == pytest.approx(-history[-1], rel=1e-12)


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_training_decreases_the_loss(activation):
    ds = make_toy_dataset(classes=3, views=2, samples=60, dims=(6, 5), seed=0)
    method = MethodId("MvOPLS", k=2, gamma=1e-3)
    mlp = MlpConfig(hidden=(8,), out_dim=4, activation=activation)
    _, _, history = train(
        ds, method, mlp, TrainerConfig(epochs=60, learning_rate=1e-2)
    )
    assert history[-1] < history[0]


def test_degenerate_spectrum_cut_raises():
    # three classes give the whitened objective rank two, so cutting at
    # k = 3 lands inside a zero eigenvalue cluster
    ds = make_toy_dataset(classes=3, views=2, samples=30, dims=(5, 4), seed=1)
    method = MethodId("MvOPLS", k=3, gamma=1e-3)
    with pytest.raises(NumericalError, match="crossing"):
        train(ds, method, MlpConfig(hidden=(4,), out_dim=3), TrainerConfig(epochs=2))


def test_cholesky_retry_paths():
    # zero features make every constraint block singular; the retry ridge
    # rescues the solve, while jitter = 0 retries with nothing and fails
    features = [np.zeros((2, 4)), np.zeros((2, 4))]
    method = MethodId("MCCA", k=4, gamma=0.0)
    loss, _ = spectral_loss(features, None, method, jitter=1e-6)
    assert loss == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NumericalError, match="positive definite"):
        spectral_loss(features, None, method, jitter=0.0)


def test_init_shapes_and_bounds():
    ds = random_dataset(seed=43, dims=(6, 3), n=10)
    nets = init_networks(ds, MlpConfig(hidden=(5, 4), out_dim=2, seed=9))
    assert [n.in_dim for n in nets] == [6, 3]
    assert all(n.out_dim == 2 for n in nets)
    for net, d in zip(nets, (6, 3)):
        fan = [(5, d), (4, 5), (2, 4)]
        for W, b, (fo, fi) in zip(net.weights, net.biases, fan):
            assert W.shape == (fo, fi)
            bound = np.sqrt(6.0 / (fi + fo))
            assert np.abs(W).max() <= bound
            np.testing.assert_array_equal(b, np.zeros(fo))
    again = init_networks(ds, MlpConfig(hidden=(5, 4), out_dim=2, seed=9))
    np.testing.assert_array_equal(nets[0].weights[0], again[0].weights[0])


def test_forward_matches_manual_computation():
    net_ds = MultiViewDataset((np.array([[0.5, -1.0], [2.0, 0.0]]),))
    nets = init_networks(net_ds, MlpConfig(hidden=(3,), out_dim=2, seed=1))
    X = net_ds.views[0]
    net = nets[0]
    h1 = np.tanh(net.weights[0] @ X + net.biases[0][:, None])
    want = np.tanh(net.weights[1] @ h1 + net.biases[1][:, None])
    np.testing.assert_allclose(forward(net, X, "tanh"), want, atol=1e-15)


def test_save_load_networks_roundtrip(tmp_path):
    ds = random_dataset(seed=47, dims=(4, 3), n=10)
    mlp = MlpConfig(hidden=(5,), out_dim=3, activation="sigmoid", seed=2)
    nets = init_networks(ds, mlp)
    save_networks(nets, mlp, tmp_path)
    back, cfg = load_networks(tmp_path)
    assert cfg == mlp
    for a, b in zip(
        forward_views(nets, list(ds.views), "sigmoid"),
        forward_views(back, list(ds.views), "sigmoid"),
    ):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_load_networks_refuses_layers_of_the_wrong_shape(tmp_path):
    ds = random_dataset(seed=47, dims=(4, 3), n=10)
    mlp = MlpConfig(hidden=(5,), out_dim=3, seed=2)
    save_networks(init_networks(ds, mlp), mlp, tmp_path)
    V_csv = tmp_path / "V_1_1.csv"  # 5 x 4
    V_csv.write_text("".join(V_csv.read_text().splitlines(keepends=True)[:2]))
    with pytest.raises(ValueError, match=r"V_1_1.csv: expected shape \(5, 4\)"):
        load_networks(tmp_path)
    save_networks(init_networks(ds, mlp), mlp, tmp_path)
    b_csv = tmp_path / "b_2_2.csv"  # 3 values
    b_csv.write_text(b_csv.read_text() + "0.0\n")
    with pytest.raises(ValueError, match="b_2_2.csv"):
        load_networks(tmp_path)


def test_config_validation():
    with pytest.raises(ValueError, match="hidden"):
        MlpConfig(hidden=(), out_dim=2)
    with pytest.raises(ValueError, match="out_dim"):
        MlpConfig(hidden=(3,), out_dim=0)
    with pytest.raises(ValueError, match="activation"):
        MlpConfig(hidden=(3,), out_dim=2, activation="relu")
    with pytest.raises(ValueError, match="epochs"):
        TrainerConfig(epochs=0)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainerConfig(learning_rate=0.0)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainerConfig(learning_rate=value)
        with pytest.raises(ValueError, match="jitter must be finite"):
            TrainerConfig(jitter=value)
    with pytest.raises(ValueError, match="jitter"):
        TrainerConfig(jitter=-1e-8)
    ds = random_dataset(seed=1, dims=(3, 2), n=8)
    with pytest.raises(ValueError, match="out_dim=2 must be at least k=3"):
        train(ds, MethodId("MvOPLS", k=3), MlpConfig(hidden=(3,), out_dim=2),
              TrainerConfig(epochs=1))


def test_training_without_labels_needs_a_label_free_method():
    ds = random_dataset(seed=1, dims=(3, 2), n=8)
    unlabeled = MultiViewDataset(ds.views)
    mlp, trainer = MlpConfig(hidden=(3,), out_dim=2), TrainerConfig(epochs=1)
    train(unlabeled, MethodId("MCCA", k=1), mlp, trainer)
    with pytest.raises(ValueError, match="needs labels"):
        train(unlabeled, MethodId("MvOPLS", k=1), mlp, trainer)


def test_retry_keeps_the_objective_factor():
    # the deep MvOPLS pencil is rank-c: the jittered retry still solves it in
    # that rank
    rng = np.random.default_rng(2)
    labels = np.repeat([1, 2, 3], 4)
    features = [rng.standard_normal((6, 12)), np.zeros((6, 12))]
    method = MethodId("MvOPLS", k=2, gamma=0.0)
    problem = build(method, MultiViewDataset(tuple(features), labels))
    with pytest.raises(NumericalError):
        solve(problem)
    solution, solved = _solve_with_retry(problem, 1e-6)
    assert solved.objective_factor is not None
    assert solution.route == "factored"


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_reused_workspace_matches_fresh_arrays(activation):
    # train keeps one workspace across epochs: a pass over other weights must
    # leave nothing behind, and views of unequal widths get their own arrays
    ds = random_dataset(seed=43, dims=(5, 4), n=18, shift=1.0)
    method = MethodId("MvDA", k=2, gamma=1e-3)
    first = init_networks(ds, MlpConfig(hidden=(6, 6), out_dim=3, seed=1))
    second = init_networks(ds, MlpConfig(hidden=(6, 6), out_dim=3, seed=2))
    first[1] = init_networks(ds, MlpConfig(hidden=(7,), out_dim=3, seed=3))[1]
    second[1] = init_networks(ds, MlpConfig(hidden=(7,), out_dim=3, seed=4))[1]
    work = _Workspace(second, ds.n_samples)
    views = list(ds.views)
    _loss_and_grads(second, views, ds.labels, method, activation, 1e-8, work)
    _loss_and_grads(first, views, ds.labels, method, activation, 1e-8, work)
    reused = _loss_and_grads(second, views, ds.labels, method, activation, 1e-8,
                             work)
    fresh = _loss_and_grads(second, views, ds.labels, method, activation, 1e-8)
    assert reused[0] == fresh[0]
    for a, b in zip(reused[2], fresh[2]):
        np.testing.assert_array_equal(a, b)
    for (dWs, dbs), (eWs, ebs) in zip(reused[3], fresh[3]):
        for a, b in zip(dWs + dbs, eWs + ebs):
            np.testing.assert_array_equal(a, b)
