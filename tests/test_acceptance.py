"""Acceptance gate: ten behavioral criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every verdict; without
``-s`` pytest still shows the line for any criterion that fails.
"""

import time
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mvsubspace as mv
from mvsubspace import (
    MethodId,
    ModelSpec,
    MultiViewDataset,
    build,
    build_indicator,
    embed,
    make_target,
    solve,
    split_dataset,
)
from mvsubspace.deep import MlpConfig, TrainerConfig, train
from mvsubspace.evaluation import (
    accuracy,
    average_precision,
    classify,
    cross_modal_retrieve,
    train_linear_classifier,
)
from mvsubspace.framework import label_readers
from mvsubspace.methods import fit as fit_method
from mvsubspace.regularizers import (
    cca_coupling,
    mean_consistency,
    representer_consistency,
)
from mvsubspace.scatter import label_kernels
from mvsubspace.toy import make_toy_dataset

from helpers import (
    EVERY_REGULARIZER,
    balanced_labels,
    catalog_pencil,
    center_columns,
    dense_label_kernels,
    densify,
    fd_worst_violation,
    materialize_on,
    orthonormalish_views,
)


def _report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_least_squares_equals_spectrum():
    """Fitted residual + ridge == ||target||^2 - sum of eigenvalues."""
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        d = int(rng.integers(2, 11))
        c = int(rng.integers(2, 5))
        n = int(rng.integers(2 * c, 61))
        labels = balanced_labels(c, n, rng)
        X = rng.standard_normal((d, n)) + 0.5 * labels
        ds = MultiViewDataset((X,), labels)
        k = int(rng.integers(1, d + 1))
        spec = ModelSpec(target_kind="sigma_invsqrt_onehot", k=k, gamma=1e-4)
        model = fit_method(spec, ds)
        Xc = center_columns(X)
        Yt = make_target(ds, spec.target_kind)
        P, W = model.projections[0], model.W
        got = (
            np.linalg.norm(Yt - W.T @ P.T @ Xc) ** 2
            + spec.gamma * np.linalg.norm(P @ W) ** 2
        )
        want = np.linalg.norm(Yt) ** 2 - model.eigenvalues.sum()
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, "least-squares equals spectrum sum",
            ok, f"worst rel {worst:.2e}, {elapsed:.2f}s over 50 instances")


def test_criterion_02_whitened_target_gives_between_scatter():
    """Centered X times the whitened one-hot Gram equals the between scatter."""
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        d = int(rng.integers(2, 9))
        c = int(rng.integers(2, 5))
        n = int(rng.integers(2 * c, 41))
        labels = balanced_labels(c, n, rng)
        X = rng.standard_normal((d, n))
        ds = MultiViewDataset((X,), labels)
        Yt = make_target(ds, "sigma_invsqrt_onehot")
        Xc = center_columns(X)
        got = Xc @ Yt.T @ Yt @ Xc.T
        want = X @ label_kernels(build_indicator(labels))["between"].apply(X).T
        worst = max(
            worst, np.abs(got - want).max() / max(1.0, np.abs(want).max())
        )
    _report(2, "whitened one-hot recovers between-class scatter",
            worst <= 1e-10, f"worst rel {worst:.2e} over 50 instances")


def test_criterion_03_indicator_algebra():
    """The library's label kernels are symmetric, between 1 = 0, H B H = B,
    X (B + W) X^T = X H X^T, and each equals its dense oracle."""
    worst = {"err": 0.0}

    @given(
        raw=st.lists(st.integers(0, 4), min_size=2, max_size=30),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def run(raw, seed):
        labels = np.unique(np.asarray(raw), return_inverse=True)[1] + 1
        n = labels.size
        ind = build_indicator(labels)
        K = {name: densify(k) for name, k in label_kernels(ind).items()}
        H, B = K["centering"], K["between"]
        X = np.random.default_rng(seed).standard_normal((3, n))
        oracles = dense_label_kernels(ind)
        errs = (
            *(np.abs(M - M.T).max() for M in K.values()),
            np.abs(B @ np.ones(n)).max(),
            np.abs(H @ B @ H - B).max(),
            np.abs(X @ (B + K["within"]) @ X.T - X @ H @ X.T).max(),
            *(np.abs(K[name] - oracles[name]).max() for name in oracles),
        )
        worst["err"] = max(worst["err"], max(errs))
        assert max(errs) <= 1e-10

    run()
    _report(3, "indicator algebra", worst["err"] <= 1e-10,
            f"worst abs {worst['err']:.2e} over 150 label vectors")


def test_criterion_04_orthonormality_and_eigen_equation():
    """Every catalog method satisfies its own pencil on 3-view data."""
    rng = np.random.default_rng(4)
    labels = balanced_labels(3, 27, rng)
    views = tuple(
        rng.standard_normal((d, 27)) + 0.6 * labels for d in (6, 5, 4)
    )
    ds = MultiViewDataset(views, labels)
    worst_orth, worst_eig = 0.0, 0.0
    for name in mv.METHOD_NAMES:
        prob = build(MethodId(name, k=3, gamma=1e-3, lam=0.3), ds)
        sol = solve(prob)
        orth = np.abs(sol.P.T @ prob.constraint @ sol.P - np.eye(3)).max()
        resid = np.abs(
            prob.objective @ sol.P
            - prob.constraint @ sol.P @ np.diag(sol.eigenvalues)
        ).max() / max(1.0, np.abs(prob.objective).max())
        worst_orth = max(worst_orth, orth)
        worst_eig = max(worst_eig, resid)
    ok = worst_orth <= 1e-8 and worst_eig <= 1e-7
    _report(4, "constraint orthonormality across all nine methods", ok,
            f"worst orth {worst_orth:.2e}, worst eigen-residual {worst_eig:.2e}")


def test_criterion_05_regularizer_quadratic_identities():
    """Matrix forms match the pairwise-sum definitions on random (P, W)."""
    rng = np.random.default_rng(5)
    dims = (8, 7, 9)
    n, v, k, c = 6, 3, 2, 3
    views = orthonormalish_views(rng, dims, n)
    P = rng.standard_normal((sum(dims), k))
    W = rng.standard_normal((k, c))
    offs = np.cumsum((0,) + dims)
    Pv = [P[offs[s]: offs[s + 1]] for s in range(v)]

    def form(M):
        return float(np.trace(W.T @ P.T @ M @ P @ W))

    one_class = label_kernels(build_indicator(np.ones(n, dtype=int)))
    mean_term = materialize_on(mean_consistency(v, one_class, 0.0), views)[1]
    m = [(W.T @ Pv[s].T @ views[s]).mean(axis=1) for s in range(v)]
    mean_direct = n / (2 * v) * sum(
        np.sum((m[s] - m[t]) ** 2) for s in range(v) for t in range(v)
    )
    rel_mean = abs(form(mean_term) - mean_direct) / abs(mean_direct)

    rep_term = materialize_on(representer_consistency(v, one_class, 0.0), views)[1]
    betas = []
    for s in range(v):
        G = views[s].T @ views[s]
        eps = 1e-10 * np.trace(G) / dims[s]
        betas.append(
            np.linalg.solve(G + eps * np.eye(n), views[s].T @ (Pv[s] @ W))
        )
    rep_direct = 0.5 * sum(
        np.sum((betas[s] - betas[t]) ** 2) for s in range(v) for t in range(v)
    )
    rel_rep = abs(form(rep_term) - rep_direct) / abs(rep_direct)

    tviews = [X - X.mean(axis=1, keepdims=True) for X in views]
    cca_term = -materialize_on(cca_coupling(v, one_class, 0.0), views)[0]
    Z = [W.T @ Pv[s].T @ tviews[s] for s in range(v)]
    cca_direct = 0.5 * sum(
        np.sum((Z[s] - Z[t]) ** 2) for s in range(v) for t in range(v)
    )
    rel_cca = abs(form(cca_term) - cca_direct) / abs(cca_direct)

    worst = max(rel_mean, rel_rep, rel_cca)
    _report(5, "regularizer quadratic-form identities", worst <= 1e-8,
            f"mean {rel_mean:.2e}, representer {rel_rep:.2e}, cca {rel_cca:.2e}")


def test_criterion_06_framework_matches_direct_builds():
    """The spec build of every catalog method reproduces its hand-written
    term list (``helpers.catalog_terms``)."""
    rng = np.random.default_rng(6)
    labels = balanced_labels(3, 24, rng)
    views = tuple(rng.standard_normal((d, 24)) + 0.4 * labels for d in (5, 4, 6))
    ds = MultiViewDataset(views, labels)
    worst = 0.0
    for name in mv.METHOD_NAMES:
        method = MethodId(name, k=2, gamma=1e-3, lam=0.3)
        pa = build(method, ds)
        pb = catalog_pencil(method, ds)
        for Ma, Mb in ((pa.objective, pb.objective), (pa.constraint, pb.constraint)):
            worst = max(
                worst, np.abs(Ma - Mb).max() / max(1.0, np.abs(Ma).max())
            )
    _report(6, "framework equals direct builds (9 methods)", worst <= 1e-8,
            f"worst matrix rel {worst:.2e}")


def test_criterion_07_two_view_correlation_matches_cca():
    """Label-free embedding with v=2, k=1 recovers the top canonical correlation."""
    rng = np.random.default_rng(7)
    n, d1, d2 = 80, 5, 4
    shared = rng.standard_normal(n)
    X1 = np.vstack([shared + 0.2 * rng.standard_normal(n) for _ in range(d1)])
    X2 = np.vstack([shared + 0.2 * rng.standard_normal(n) for _ in range(d2)])
    ds = MultiViewDataset((X1, X2))
    model = fit_method(MethodId("MCCA", k=1, gamma=1e-10), ds)
    (za, zb), _ = embed(model, ds)
    got = abs(np.corrcoef(za[0], zb[0])[0, 1])

    Xa = center_columns(X1)
    Xb = center_columns(X2)

    def invsqrt(M):
        w, U = np.linalg.eigh(M)
        return U @ np.diag(w ** -0.5) @ U.T

    T = invsqrt(Xa @ Xa.T) @ (Xa @ Xb.T) @ invsqrt(Xb @ Xb.T)
    want = np.linalg.svd(T, compute_uv=False)[0]
    _report(7, "two-view correlation equals CCA oracle",
            abs(got - want) <= 1e-6,
            f"got {got:.8f}, oracle {want:.8f}, diff {abs(got - want):.2e}")


def test_criterion_08_deep_gradients_match_finite_differences():
    """Analytic parameter gradients vs central differences, 24 instances: five
    catalog methods and one regularized spec that no catalog method spells."""
    t0 = time.monotonic()
    worst = -np.inf
    count = 0
    specs = [
        MethodId(name, k=2, gamma=1e-3, lam=0.3)
        for name in ("MvOPLS", "MvLDA", "MvMDA", "MLDA", "MvDA_CCA")
    ]
    specs.append(replace(EVERY_REGULARIZER, k=2, gamma=1e-3))
    for method in specs:
        for activation in ("tanh", "sigmoid"):
            for seed in (17, 18):
                rng = np.random.default_rng(seed)
                labels = balanced_labels(3, 9, rng)
                views = tuple(
                    rng.standard_normal((d, 9)) + 0.8 * labels for d in (4, 3)
                )
                ds = MultiViewDataset(views, labels)
                mlp = MlpConfig(
                    hidden=(5,), out_dim=4, activation=activation, seed=seed
                )
                worst = max(worst, fd_worst_violation(ds, method, mlp, activation))
                count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 0.0 and count >= 20 and elapsed < 60.0
    _report(8, "deep gradients match finite differences", ok,
            f"{count} instances, worst margin to tolerance {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_09_end_to_end_desk_scale():
    """Supervised methods beat the label-free baseline; deep loss decreases."""
    t0 = time.monotonic()
    ds = make_toy_dataset(classes=3, views=3, samples=300, seed=0)
    means = {}
    for name in mv.METHOD_NAMES:
        accs = []
        for split_seed in range(5):
            tr, te = split_dataset(ds, 0.1, seed=split_seed)
            model = fit_method(MethodId(name, k=2), tr)
            _, Ztr = embed(model, tr)
            _, Zte = embed(model, te)
            clf = train_linear_classifier(Ztr, tr.labels)
            accs.append(accuracy(classify(clf, Zte), te.labels))
        means[name] = float(np.mean(accs))
    baseline = means["MCCA"]
    supervised = [
        name for name in mv.METHOD_NAMES
        if label_readers(MethodId(name, k=1))
    ]
    ordering_ok = all(means[name] >= baseline for name in supervised)

    _, _, history = train(
        ds,
        MethodId("MvOPLS", k=2, gamma=1e-4),
        MlpConfig(hidden=(16,), out_dim=6),
        TrainerConfig(epochs=200),
    )
    deep_ok = history[-1] <= history[0]
    elapsed = time.monotonic() - t0
    ok = ordering_ok and deep_ok and elapsed < 120.0
    weakest = min(supervised, key=means.get)
    _report(9, "desk-scale end-to-end sanity", ok,
            f"baseline {baseline:.3f}, weakest supervised {weakest} "
            f"{means[weakest]:.3f}, deep loss {history[0]:.3f} -> "
            f"{history[-1]:.3f}, {elapsed:.1f}s")


def test_criterion_10_average_precision_oracle():
    """Hand-checked AP values hold exactly; coincident pairs retrieve at 1.0."""
    exact = (
        average_precision([1, 0, 1]) == 5 / 6
        and average_precision([0, 0, 1]) == 1 / 3
    )
    Z = np.random.default_rng(10).standard_normal((3, 8))
    labels = np.arange(1, 9)
    res = cross_modal_retrieve(Z, labels, Z, labels)
    coincident = res.map_ab == 1.0 and res.map_ba == 1.0
    _report(10, "average-precision oracle", exact and coincident,
            f"AP exact: {exact}, coincident-pair mAP: "
            f"{res.map_ab:.1f}/{res.map_ba:.1f}")
