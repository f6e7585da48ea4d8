"""Command-line interface.

Subcommands: fit, classify, retrieve, sweep, gen-toy.  Experiments are
described by a flat ``key = value`` config file ('#' starts a comment) whose
keys are those of ``_KEYS``; any other key is a config error.  ``--seed`` and
``--out`` override the config's ``seed`` and ``out_dir``.
Exit codes: 0 on success, 2 for configuration or data errors, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import deep as deep_mod
from . import evaluation, framework, methods, toy
from .data import MultiViewDataset, _write_text, load_dataset, pca_reduce, split_dataset
from .gevd import NumericalError

# Every config key and its default; None marks a key with no default, which
# is required where it is read unless the reader checks ``key in cfg``.
_KEYS = {
    "dataset": None,
    "out_dir": None,
    "seed": "0",
    "method": "MvOPLS",
    "k": "20",
    "gamma": "1e-4",
    "lambda": "1e-2",
    "train_fraction": None,
    "repeats": "5",
    "ridge": "1e-4",
    "pca": "false",
    "pca_energy": "0.95",
    "deep": "false",
    "hidden": "500,500",
    "hidden_width": "500",
    "depth": None,
    "out_dim": None,
    "activation": "tanh",
    "epochs": "200",
    "learning_rate": "1e-3",
    "jitter": "1e-8",
    "classes": "3",
    "views": "3",
    "samples": "300",
    "dims": None,
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
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{p.name}, line {i}: unknown config key {key!r}")
        if key in cfg:
            raise ConfigError(f"{p.name}, line {i}: config key {key!r} is set twice")
        cfg[key] = value
    return cfg


def _get(cfg, key, parse=str, kind=None):
    """The key's value, or its default, through ``parse``."""
    raw = cfg.get(key, _KEYS[key])
    if raw is None:
        raise ConfigError(f"config key {key!r} is required")
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected {kind}, got {raw!r}") from None


def _get_int(cfg, key):
    return _get(cfg, key, int, "an integer")


def _get_float(cfg, key):
    return _get(cfg, key, float, "a number")


def _get_bool(cfg, key):
    raw = _get(cfg, key).lower()
    if raw in ("true", "yes", "1"):
        return True
    if raw in ("false", "no", "0"):
        return False
    raise ConfigError(f"config key {key!r}: expected true/false, got {raw!r}")


def _split_list(cfg, key, parse):
    raw = _get(cfg, key)
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"config key {key!r}: empty list")
    try:
        return [parse(p) for p in parts]
    except ValueError:
        raise ConfigError(f"config key {key!r}: could not parse {raw!r}") from None


def _spec(cfg, k, lam):
    """The configured catalog method's ModelSpec."""
    return methods.MethodId(_get(cfg, "method"), k, _get_float(cfg, "gamma"), lam)


def _mlp_config(cfg, k):
    return deep_mod.MlpConfig(
        hidden=tuple(_split_list(cfg, "hidden", int)),
        out_dim=_get_int(cfg, "out_dim") if "out_dim" in cfg else k,
        activation=_get(cfg, "activation"),
        seed=_get_int(cfg, "seed"),
    )


def _trainer_config(cfg):
    return deep_mod.TrainerConfig(
        learning_rate=_get_float(cfg, "learning_rate"),
        epochs=_get_int(cfg, "epochs"),
        jitter=_get_float(cfg, "jitter"),
    )


def _load(cfg, needs=None):
    """The configured dataset; ``needs`` (e.g. "retrieval needs") marks a
    command that must have labels and a train_fraction."""
    ds = load_dataset(_get(cfg, "dataset"))
    if needs is not None:
        if ds.labels is None:
            raise ConfigError(f"{needs} labels.csv in the dataset")
        _get(cfg, "train_fraction")  # raises when unset
    return ds


def _write(out_dir, files):
    """Write each {name: text} into out_dir atomically; no-op without out_dir."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write_text(out / name, text)


def _prepare_split(ds, cfg, frac, seed):
    """Split, then fit PCA on the training side only."""
    train, test = split_dataset(ds, frac, seed)
    if _get_bool(cfg, "pca"):
        train, reducers = pca_reduce(train, _get_float(cfg, "pca_energy"))
        test_views = tuple(
            r.transform(X) for r, X in zip(reducers, test.views)
        )
        test = MultiViewDataset(test_views, test.labels, test.label_map)
    return train, test


def _fit(cfg, ds, spec):
    """Fit spec on ds, through per-view MLPs when deep = true.

    Returns ``(model, nets, mlp_cfg, history)``; the last three are None on
    the linear path.
    """
    if not _get_bool(cfg, "deep"):
        return methods.fit(spec, ds), None, None, None
    mlp_cfg = _mlp_config(cfg, spec.k)
    nets, model, history = deep_mod.train(ds, spec, mlp_cfg, _trainer_config(cfg))
    return model, nets, mlp_cfg, history


def _embeddings(cfg, train, test, spec):
    """Fit on train and embed both sides."""
    model, nets, mlp_cfg, _ = _fit(cfg, train, spec)
    if nets is not None:
        train, test = (
            MultiViewDataset(
                tuple(deep_mod.forward_views(nets, d.views, mlp_cfg.activation)),
                d.labels,
            )
            for d in (train, test)
        )
    _, Z_train = framework.embed(model, train)
    per_test, Z_test = framework.embed(model, test)
    return Z_train, Z_test, per_test, model


def _accuracy_cells(cfg, ds, seed, fracs, lams, depths=(None,)):
    """Yield ``(k, train_fraction, lambda, depth, accuracies)`` for every
    cell of the k x fracs x lams x depths grid, one accuracy per repeat.

    Every cell, ``repeats`` and ``ridge`` are checked before the first fit.
    """
    ks = _split_list(cfg, "k", int)
    specs = {(k, lam): _spec(cfg, k, lam) for k in ks for lam in lams}
    if not all(0.0 < frac < 1.0 for frac in fracs):
        raise ConfigError("train_fraction must lie strictly between 0 and 1")
    repeats = _get_int(cfg, "repeats")
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    ridge = _get_float(cfg, "ridge")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise ConfigError(f"ridge must be finite and nonnegative, got {ridge}")
    for k, frac, lam, depth in itertools.product(ks, fracs, lams, depths):
        cell = cfg
        if depth is not None:
            width = str(_get_int(cfg, "hidden_width"))
            cell = dict(cfg, hidden=",".join([width] * (depth - 1)))
        accs = []
        for r in range(repeats):
            train, test = _prepare_split(ds, cfg, frac, seed + r)
            Z_train, Z_test, _, _ = _embeddings(cell, train, test, specs[k, lam])
            clf = evaluation.train_linear_classifier(Z_train, train.labels, ridge=ridge)
            accs.append(evaluation.accuracy(evaluation.classify(clf, Z_test), test.labels))
        yield k, frac, lam, depth, np.asarray(accs)


def cmd_fit(cfg, out_dir, seed):
    ds = _load(cfg)
    if "train_fraction" in cfg:
        ds, _ = split_dataset(ds, _get_float(cfg, "train_fraction"), seed)
    if _get_bool(cfg, "pca"):
        ds, _ = pca_reduce(ds, _get_float(cfg, "pca_energy"))
    spec = _spec(cfg, _split_list(cfg, "k", int)[0], _get_float(cfg, "lambda"))
    if out_dir is None:
        raise ConfigError("fit needs an output directory (--out or out_dir)")
    model, nets, mlp_cfg, history = _fit(cfg, ds, spec)
    framework.save_model(model, out_dir)
    if nets is not None:
        deep_mod.save_networks(nets, mlp_cfg, out_dir)
        print(f"final loss = {history[-1]:.6f} after {len(history)} epochs")
    spectrum = ", ".join(f"{x:.6g}" for x in model.eigenvalues)
    print(f"method = {spec.method}")
    print(f"eigenvalues = {spectrum}")
    print(f"model written to {out_dir}")
    return 0


def cmd_classify(cfg, out_dir, seed):
    ds = _load(cfg, "classification needs")
    fracs, lams = [_get_float(cfg, "train_fraction")], [_get_float(cfg, "lambda")]
    lines = []
    rows = ["k,accuracy_mean,accuracy_std"]
    for k, _, _, _, accs in _accuracy_cells(cfg, ds, seed, fracs, lams):
        lines.append(f"k = {k}")
        lines.append(f"accuracy_mean = {accs.mean():.6f}")
        lines.append(f"accuracy_std = {accs.std():.6f}")
        lines.append("accuracy_runs = " + ",".join(f"{a:.6f}" for a in accs))
        rows.append(f"{k},{accs.mean():.6f},{accs.std():.6f}")
    report = "\n".join(lines)
    print(report)
    _write(out_dir, {"classify.txt": report + "\n", "classify.csv": "\n".join(rows) + "\n"})
    return 0


def cmd_retrieve(cfg, out_dir, seed):
    ds = _load(cfg, "retrieval needs")
    if ds.n_views != 2:
        raise ConfigError(f"retrieval needs exactly two views, got {ds.n_views}")
    k = _split_list(cfg, "k", int)[0]
    train, test = _prepare_split(ds, cfg, _get_float(cfg, "train_fraction"), seed)
    spec = _spec(cfg, k, _get_float(cfg, "lambda"))
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
    _write(out_dir, {"retrieve.txt": report + "\n"})
    return 0


def cmd_sweep(cfg, out_dir, seed):
    ds = _load(cfg, "sweeps need")
    if out_dir is None:
        raise ConfigError("sweep needs an output directory (--out or out_dir)")
    depths = [None]
    if "depth" in cfg:
        if not _get_bool(cfg, "deep"):
            raise ConfigError("a depth sweep needs deep = true")
        depths = _split_list(cfg, "depth", int)
        if min(depths) < 2:
            raise ConfigError("depth must be at least 2")
    fracs = _split_list(cfg, "train_fraction", float)
    lams = _split_list(cfg, "lambda", float)
    rows = ["k,train_fraction,lambda,depth,accuracy_mean,accuracy_std"]
    for k, frac, lam, depth, accs in _accuracy_cells(cfg, ds, seed, fracs, lams, depths):
        depth_tag = "" if depth is None else str(depth)
        rows.append(f"{k},{frac},{lam},{depth_tag},{accs.mean():.6f},{accs.std():.6f}")
        print(rows[-1])
    _write(out_dir, {"sweep.csv": "\n".join(rows) + "\n"})
    return 0


def cmd_gen_toy(cfg, out_dir, seed):
    if out_dir is None:
        raise ConfigError("gen-toy needs an output directory (--out or out_dir)")
    ds = toy.make_toy_dataset(
        classes=_get_int(cfg, "classes"),
        views=_get_int(cfg, "views"),
        samples=_get_int(cfg, "samples"),
        dims=_split_list(cfg, "dims", int) if "dims" in cfg else None,
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
    "fit": (cmd_fit, "fit a model and write it to a directory"),
    "classify": (cmd_classify, "repeated split / fit / classify runs"),
    "retrieve": (cmd_retrieve, "cross-modal retrieval on a two-view dataset"),
    "sweep": (cmd_sweep, "cross-product sweep over k / train_fraction / lambda / depth"),
    "gen-toy": (cmd_gen_toy, "generate a synthetic multi-view dataset"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mvsubspace",
        description="Multi-view subspace learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
        handler, _ = _COMMANDS[args.command]
        return handler(cfg, out_dir, seed)
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
