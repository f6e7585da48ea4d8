"""Command-line interface.

Subcommands: fit, classify, retrieve, sweep, gen-toy.  Experiments are
described by a flat ``key = value`` config file ('#' starts a comment);
``--seed`` and ``--out`` override the config's ``seed`` and ``out_dir``.
Exit codes: 0 on success, 2 for configuration or data errors, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import deep as deep_mod
from . import evaluation, framework, methods, toy
from .data import load_dataset, pca_reduce, split_dataset, MultiViewDataset
from .gevd import NumericalError

_DEFAULTS = {
    "method": "MvOPLS",
    "k": "20",
    "gamma": "1e-4",
    "lambda": "1e-2",
    "pca": "false",
    "pca_energy": "0.95",
    "repeats": "5",
    "seed": "0",
    "deep": "false",
    "hidden": "500,500",
    "hidden_width": "500",
    "activation": "tanh",
    "epochs": "200",
    "learning_rate": "1e-3",
    "jitter": "1e-8",
    "ridge": "1e-4",
    "classes": "3",
    "views": "3",
    "samples": "300",
    "noise": "0.3",
    "separation": "4.0",
}


class ConfigError(ValueError):
    pass


def read_config(path):
    """Parse a flat key = value config file into a string dict."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path} not found")
    cfg = {}
    for i, line in enumerate(p.read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{p.name}, line {i}: expected 'key = value', got {line!r}")
        key, value = text.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _get(cfg, key):
    return cfg.get(key, _DEFAULTS.get(key))


def _get_int(cfg, key):
    raw = _get(cfg, key)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: expected an integer, got {raw!r}") from None


def _get_float(cfg, key):
    raw = _get(cfg, key)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: expected a number, got {raw!r}") from None


def _get_bool(cfg, key):
    raw = str(_get(cfg, key)).lower()
    if raw in ("true", "yes", "1"):
        return True
    if raw in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r}: expected true/false, got {raw!r}")


def _split_list(cfg, key, parse):
    raw = _get(cfg, key)
    if raw is None:
        raise ConfigError(f"config key {key!r} is required")
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"config key {key!r}: empty list")
    try:
        return [parse(p) for p in parts]
    except ValueError:
        raise ConfigError(f"config key {key!r}: could not parse {raw!r}") from None


def _spec(cfg, k):
    """The configured catalog method's ModelSpec."""
    return methods.MethodId(
        _get(cfg, "method"), k, _get_float(cfg, "gamma"), _get_float(cfg, "lambda")
    )


def _mlp_config(cfg, k, hidden=None):
    out_dim = _get_int(cfg, "out_dim") if "out_dim" in cfg else k
    return deep_mod.MlpConfig(
        hidden=tuple(hidden if hidden is not None else _split_list(cfg, "hidden", int)),
        out_dim=out_dim,
        activation=_get(cfg, "activation"),
        seed=_get_int(cfg, "seed"),
    )


def _trainer_config(cfg):
    return deep_mod.TrainerConfig(
        learning_rate=_get_float(cfg, "learning_rate"),
        epochs=_get_int(cfg, "epochs"),
        jitter=_get_float(cfg, "jitter"),
    )


def _load(cfg):
    if "dataset" not in cfg:
        raise ConfigError("config key 'dataset' is required")
    return load_dataset(cfg["dataset"])


def _atomic_write(path, text):
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _prepare_split(ds, cfg, seed, use_pca):
    """Split, then fit PCA on the training side only."""
    train, test = split_dataset(ds, _get_float(cfg, "train_fraction"), seed)
    if use_pca:
        train, reducers = pca_reduce(train, _get_float(cfg, "pca_energy"))
        test_views = tuple(
            r.transform(X) for r, X in zip(reducers, test.views)
        )
        test = MultiViewDataset(test_views, test.labels, test.label_map)
    return train, test


def _embeddings(cfg, train, test, spec):
    """Fit on train and embed both sides; handles the deep path."""
    if _get_bool(cfg, "deep"):
        mlp_cfg = _mlp_config(cfg, spec.k)
        nets, model, history = deep_mod.train(train, spec, mlp_cfg, _trainer_config(cfg))
        feats_train = deep_mod.forward_views(nets, train.views, mlp_cfg.activation)
        feats_test = deep_mod.forward_views(nets, test.views, mlp_cfg.activation)
        train_ds = MultiViewDataset(tuple(feats_train), train.labels)
        test_ds = MultiViewDataset(tuple(feats_test), test.labels)
        _, Z_train = framework.embed(model, train_ds)
        per_test, Z_test = framework.embed(model, test_ds)
        return Z_train, Z_test, per_test, model
    model = methods.fit(spec, train)
    _, Z_train = framework.embed(model, train)
    per_test, Z_test = framework.embed(model, test)
    return Z_train, Z_test, per_test, model


def _accuracy_runs(cfg, ds, spec, seed):
    repeats = _get_int(cfg, "repeats")
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    ridge = _get_float(cfg, "ridge")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ConfigError(f"ridge must be finite and nonnegative, got {ridge}")
    accs = []
    for r in range(repeats):
        train, test = _prepare_split(ds, cfg, seed + r, _get_bool(cfg, "pca"))
        Z_train, Z_test, _, _ = _embeddings(cfg, train, test, spec)
        clf = evaluation.train_linear_classifier(Z_train, train.labels, ridge=ridge)
        accs.append(evaluation.accuracy(evaluation.classify(clf, Z_test), test.labels))
    return np.asarray(accs)


def cmd_fit(cfg, out_dir, seed):
    ds = _load(cfg)
    if "train_fraction" in cfg:
        ds, _ = split_dataset(ds, _get_float(cfg, "train_fraction"), seed)
    if _get_bool(cfg, "pca"):
        ds, _ = pca_reduce(ds, _get_float(cfg, "pca_energy"))
    k = _split_list(cfg, "k", int)[0]
    spec = _spec(cfg, k)
    if out_dir is None:
        raise ConfigError("fit needs an output directory (--out or out_dir)")
    if _get_bool(cfg, "deep"):
        mlp_cfg = _mlp_config(cfg, k)
        nets, model, history = deep_mod.train(ds, spec, mlp_cfg, _trainer_config(cfg))
        deep_mod.save_networks(nets, mlp_cfg, out_dir)
        framework.save_model(model, out_dir)
        print(f"final loss = {history[-1]:.6f} after {len(history)} epochs")
    else:
        model = methods.fit(spec, ds)
        framework.save_model(model, out_dir)
    spectrum = ", ".join(f"{x:.6g}" for x in model.eigenvalues)
    print(f"method = {spec.method}")
    print(f"eigenvalues = {spectrum}")
    print(f"model written to {out_dir}")
    return 0


def cmd_classify(cfg, out_dir, seed):
    ds = _load(cfg)
    if ds.labels is None:
        raise ConfigError("classification needs labels.csv in the dataset")
    if "train_fraction" not in cfg:
        raise ConfigError("config key 'train_fraction' is required")
    # Every k is checked before the first fit.
    specs = [_spec(cfg, k) for k in _split_list(cfg, "k", int)]
    lines = []
    rows = ["k,accuracy_mean,accuracy_std"]
    for spec in specs:
        accs = _accuracy_runs(cfg, ds, spec, seed)
        lines.append(f"k = {spec.k}")
        lines.append(f"accuracy_mean = {accs.mean():.6f}")
        lines.append(f"accuracy_std = {accs.std():.6f}")
        lines.append("accuracy_runs = " + ",".join(f"{a:.6f}" for a in accs))
        rows.append(f"{spec.k},{accs.mean():.6f},{accs.std():.6f}")
    report = "\n".join(lines)
    print(report)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "classify.txt", report + "\n")
        _atomic_write(out / "classify.csv", "\n".join(rows) + "\n")
    return 0


def cmd_retrieve(cfg, out_dir, seed):
    ds = _load(cfg)
    if ds.labels is None:
        raise ConfigError("retrieval needs labels.csv in the dataset")
    if ds.n_views != 2:
        raise ConfigError(f"retrieval needs exactly two views, got {ds.n_views}")
    if "train_fraction" not in cfg:
        raise ConfigError("config key 'train_fraction' is required")
    k = _split_list(cfg, "k", int)[0]
    train, test = _prepare_split(ds, cfg, seed, _get_bool(cfg, "pca"))
    spec = _spec(cfg, k)
    _, _, per_test, _ = _embeddings(cfg, train, test, spec)
    result = evaluation.cross_modal_retrieve(
        per_test[0], test.labels, per_test[1], test.labels
    )
    lines = [
        f"method = {spec.method}",
        f"k = {k}",
        f"map_1_to_2 = {result.map_ab:.6f}",
        f"map_2_to_1 = {result.map_ba:.6f}",
        f"map_mean = {result.map_mean:.6f}",
    ]
    report = "\n".join(lines)
    print(report)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "retrieve.txt", report + "\n")
    return 0


def cmd_sweep(cfg, out_dir, seed):
    ds = _load(cfg)
    if ds.labels is None:
        raise ConfigError("sweeps need labels.csv in the dataset")
    if out_dir is None:
        raise ConfigError("sweep needs an output directory (--out or out_dir)")
    ks = _split_list(cfg, "k", int)
    if "train_fraction" not in cfg:
        raise ConfigError("config key 'train_fraction' is required")
    fracs = _split_list(cfg, "train_fraction", float)
    lams = _split_list(cfg, "lambda", float)
    # Every cell is checked before the first fit prints its row.
    method, gamma = _get(cfg, "method"), _get_float(cfg, "gamma")
    specs = {
        (k, lam): methods.MethodId(method, k, gamma, lam) for k in ks for lam in lams
    }
    if not all(0.0 < frac < 1.0 for frac in fracs):
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    deep = _get_bool(cfg, "deep")
    depths = [None]
    if "depth" in cfg:
        if not deep:
            raise ConfigError("a depth sweep needs deep = true")
        depths = _split_list(cfg, "depth", int)
        if min(depths) < 2:
            raise ConfigError("depth must be at least 2")
    width = _get_int(cfg, "hidden_width")
    rows = ["k,train_fraction,lambda,depth,accuracy_mean,accuracy_std"]
    for k in ks:
        for frac in fracs:
            for lam in lams:
                for depth in depths:
                    cell = dict(cfg)
                    cell["train_fraction"] = repr(frac)
                    if depth is not None:
                        cell["hidden"] = ",".join([str(width)] * (depth - 1))
                    accs = _accuracy_runs(cell, ds, specs[k, lam], seed)
                    depth_tag = "" if depth is None else str(depth)
                    rows.append(
                        f"{k},{frac},{lam},{depth_tag},"
                        f"{accs.mean():.6f},{accs.std():.6f}"
                    )
                    print(rows[-1])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "sweep.csv", "\n".join(rows) + "\n")
    return 0


def cmd_gen_toy(cfg, out_dir, seed):
    if out_dir is None:
        raise ConfigError("gen-toy needs an output directory (--out or out_dir)")
    views = _get_int(cfg, "views")
    dims = _split_list(cfg, "dims", int) if "dims" in cfg else None
    ds = toy.make_toy_dataset(
        classes=_get_int(cfg, "classes"),
        views=views,
        samples=_get_int(cfg, "samples"),
        dims=dims,
        noise=_get_float(cfg, "noise"),
        separation=_get_float(cfg, "separation"),
        seed=seed,
    )
    toy.save_dataset(ds, out_dir)
    print(
        f"wrote {ds.n_views} views with {ds.n_samples} samples and "
        f"{ds.n_classes} classes to {out_dir}"
    )
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "classify": cmd_classify,
    "retrieve": cmd_retrieve,
    "sweep": cmd_sweep,
    "gen-toy": cmd_gen_toy,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mvsubspace",
        description="Multi-view subspace learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fit", "fit a model and write it to a directory"),
        ("classify", "repeated split / fit / classify runs"),
        ("retrieve", "cross-modal retrieval on a two-view dataset"),
        ("sweep", "cross-product sweep over k / train_fraction / lambda / depth"),
        ("gen-toy", "generate a synthetic multi-view dataset"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = read_config(args.config)
        seed = args.seed if args.seed is not None else _get_int(cfg, "seed")
        out_dir = args.out if args.out is not None else cfg.get("out_dir")
        return _COMMANDS[args.command](cfg, out_dir, seed)
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
