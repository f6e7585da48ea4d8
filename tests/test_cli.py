"""End-to-end command line runs against generated toy data."""

import numpy as np
import pytest

from mvsubspace import cli, load_model
from mvsubspace.cli import main
from mvsubspace.deep import load_networks


def write_cfg(path, **keys):
    lines = ["# test config", ""]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def toy_dir(tmp_path):
    cfg = write_cfg(
        tmp_path / "gen.cfg", classes="3", views="2", samples="60",
        noise="0.3", separation="4.0", seed="0",
    )
    data = tmp_path / "data"
    assert main(["gen-toy", "--config", cfg, "--out", str(data)]) == 0
    return data


def test_gen_toy_writes_loadable_dataset(toy_dir):
    files = sorted(p.name for p in toy_dir.iterdir())
    assert files == ["labels.csv", "view_1.csv", "view_2.csv"]


def test_fit_writes_model(toy_dir, tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "fit.cfg", dataset=str(toy_dir), method="MvOPLS", k="2",
    )
    out = tmp_path / "model"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert "eigenvalues = " in capsys.readouterr().out
    model = load_model(out)
    assert model.k == 2
    assert model.spec.method == "MvOPLS"
    assert (out / "P_1.csv").exists() and (out / "P_2.csv").exists()


def test_fit_deep_writes_networks(toy_dir, tmp_path):
    cfg = write_cfg(
        tmp_path / "deep.cfg", dataset=str(toy_dir), method="MvOPLS", k="2",
        deep="true", hidden="6", epochs="3", learning_rate="0.01",
    )
    out = tmp_path / "deepmodel"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    nets, mlp = load_networks(out)
    assert len(nets) == 2
    assert mlp.hidden == (6,)
    load_model(out)  # the linear head rides along


def test_classify_reports_and_is_deterministic(toy_dir, tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "cls.cfg", dataset=str(toy_dir), method="MvOPLS",
        k="1,2", train_fraction="0.5", repeats="3", seed="0",
    )
    out = tmp_path / "report"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "k = 1" in text and "k = 2" in text
    first = (out / "classify.csv").read_text()
    assert first.splitlines()[0] == "k,accuracy_mean,accuracy_std"
    assert len(first.splitlines()) == 3
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "classify.csv").read_text() == first
    mean = float(first.splitlines()[2].split(",")[1])
    assert 0.0 <= mean <= 1.0


def test_retrieve_two_views(toy_dir, tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "ret.cfg", dataset=str(toy_dir), method="MvOPLS", k="2",
        train_fraction="0.5",
    )
    out = tmp_path / "ret"
    assert main(["retrieve", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "retrieve.txt").read_text()
    for key in ("map_1_to_2", "map_2_to_1", "map_mean"):
        assert key in text
    mean = float(text.splitlines()[-1].split("=")[1])
    assert 0.0 < mean <= 1.0


def test_non_finite_embedding_exits_with_a_data_error(
    toy_dir, tmp_path, capsys, monkeypatch
):
    # a NaN that reaches the embeddings is reported, not ranked
    real = cli._embeddings

    def poisoned(*args):
        Z_train, Z_test, per_test = real(*args)
        per_test[0][0, 0] = np.nan
        return Z_train, Z_test, per_test

    monkeypatch.setattr(cli, "_embeddings", poisoned)
    cfg = write_cfg(
        tmp_path / "ret.cfg", dataset=str(toy_dir), method="MvOPLS", k="2",
        train_fraction="0.5",
    )
    assert main(["retrieve", "--config", cfg]) == 2
    assert "Z_a has non-finite entries" in capsys.readouterr().err


def test_non_integer_labels_exit_with_a_data_error(
    toy_dir, tmp_path, capsys, monkeypatch
):
    # labels that reach the classifier as floats are reported, not indexed
    real = cli.evaluation.train_linear_classifier

    def float_labels(Z, labels, ridge):
        return real(Z, labels.astype(float), ridge=ridge)

    monkeypatch.setattr(cli.evaluation, "train_linear_classifier", float_labels)
    cfg = write_cfg(
        tmp_path / "cls.cfg", dataset=str(toy_dir), method="MvOPLS", k="2",
        train_fraction="0.5", repeats="1",
    )
    assert main(["classify", "--config", cfg]) == 2
    assert "labels must be integers >= 1" in capsys.readouterr().err


def test_gen_toy_refuses_a_view_without_features(tmp_path, capsys):
    gen = write_cfg(tmp_path / "gen.cfg", views="2", dims="0,5")
    data = tmp_path / "data"
    assert main(["gen-toy", "--config", gen, "--out", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one feature" in captured.err
    assert not data.exists()


def test_retrieve_rejects_other_view_counts(tmp_path, capsys):
    gen = write_cfg(tmp_path / "gen.cfg", classes="2", views="3", samples="30")
    data = tmp_path / "data3"
    assert main(["gen-toy", "--config", gen, "--out", str(data), "--seed", "1"]) == 0
    cfg = write_cfg(
        tmp_path / "ret.cfg", dataset=str(data), k="1", train_fraction="0.5"
    )
    assert main(["retrieve", "--config", cfg]) == 2
    assert "exactly two views" in capsys.readouterr().err


def test_sweep_covers_the_grid(toy_dir, tmp_path):
    cfg = write_cfg(
        tmp_path / "sweep.cfg", dataset=str(toy_dir), method="MvDA_CCA",
        k="1,2", train_fraction="0.4,0.6", repeats="2", seed="3",
        **{"lambda": "0.01,0.1"},
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "k,train_fraction,lambda,depth,accuracy_mean,accuracy_std"
    assert len(rows) == 1 + 2 * 2 * 2


def test_depth_sweep_needs_deep(toy_dir, tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "sweep.cfg", dataset=str(toy_dir), method="MvOPLS",
        k="1", train_fraction="0.5", depth="2,3",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "needs deep = true" in capsys.readouterr().err


def test_depth_list_is_checked_before_the_first_fit(toy_dir, tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "sweep.cfg", dataset=str(toy_dir), method="MvOPLS",
        k="1", train_fraction="0.5", repeats="1", deep="true", depth="3,1",
        hidden_width="4", epochs="2",
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "depth must be at least 2" in captured.err
    assert captured.out == ""
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"k": "1,0"}, "k must be at least 1"),
        ({"lambda": "0.01,nan"}, "lam must be finite and nonnegative"),
        ({"train_fraction": "0.5,1.5"}, "train_fraction must lie strictly"),
    ],
)
def test_every_sweep_cell_is_checked_before_the_first_fit(
    toy_dir, tmp_path, capsys, keys, message
):
    cells = {"k": "1", "train_fraction": "0.5", "lambda": "0.01", **keys}
    cfg = write_cfg(
        tmp_path / "sweep.cfg", dataset=str(toy_dir), method="MvDA_VC",
        repeats="1", **cells,
    )
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not (out / "sweep.csv").exists()


def test_every_classify_k_is_checked_before_the_first_fit(
    toy_dir, tmp_path, capsys, monkeypatch
):
    fits = []
    monkeypatch.setattr(cli.methods, "fit", lambda *a: fits.append(a))
    cfg = write_cfg(
        tmp_path / "c.cfg", dataset=str(toy_dir), method="MvOPLS", k="2,0",
        train_fraction="0.5", repeats="3",
    )
    out = tmp_path / "c"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "k must be at least 1" in captured.err
    assert captured.out == ""
    assert fits == []
    assert not (out / "classify.csv").exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"ridge": "nan"}, "ridge must be finite and nonnegative"),
        ({"ridge": "-5"}, "ridge must be finite and nonnegative"),
        ({"deep": "true", "learning_rate": "nan"}, "learning_rate must be finite"),
        ({"deep": "true", "jitter": "nan"}, "jitter must be finite"),
    ],
)
def test_classifier_and_trainer_values_are_checked(
    toy_dir, tmp_path, capsys, keys, message
):
    cfg = write_cfg(
        tmp_path / "c.cfg", dataset=str(toy_dir), method="MvOPLS", k="2",
        train_fraction="0.5", repeats="1", hidden="8", epochs="3", **keys,
    )
    assert main(["classify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("deep", ["false", "true"])
@pytest.mark.parametrize("ridge", ["nan", "-5"])
@pytest.mark.parametrize("command", ["classify", "sweep"])
def test_ridge_is_checked_before_the_first_fit(
    toy_dir, tmp_path, capsys, monkeypatch, command, ridge, deep
):
    fits = []
    monkeypatch.setattr(cli.methods, "fit", lambda *a: fits.append(a))
    monkeypatch.setattr(cli.deep_mod, "train", lambda *a: fits.append(a))
    cfg = write_cfg(
        tmp_path / "r.cfg", dataset=str(toy_dir), method="MvOPLS", k="1,2",
        train_fraction="0.5", repeats="2", ridge=ridge, deep=deep, hidden="6",
        epochs="2",
    )
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "ridge must be finite and nonnegative" in captured.err
    assert captured.out == ""
    assert fits == []
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["classify", "sweep"])
@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_repeats_below_one_is_a_config_error(
    toy_dir, tmp_path, capsys, command, repeats
):
    cfg = write_cfg(
        tmp_path / "r.cfg", dataset=str(toy_dir), method="MvOPLS", k="1",
        train_fraction="0.5", repeats=repeats,
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    assert "repeats must be at least 1" in captured.err
    assert captured.out == ""


def test_missing_config_file(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_line(toy_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset\n")
    assert main(["fit", "--config", str(bad), "--out", str(tmp_path / "m")]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "classify", "retrieve", "sweep", "gen-toy"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, command):
    # a misspelt key must not leave its setting at the default, and is
    # reported before the (missing) dataset is read
    cfg = write_cfg(
        tmp_path / "typo.cfg", dataset=str(tmp_path / "none"), method="MvOPLS", k="1",
        train_fraction="0.5", repeats="1", lamda="1e3",
    )
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "typo.cfg, line 8: unknown config key 'lamda'" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "classify", "retrieve", "sweep", "gen-toy"])
def test_repeated_key_is_a_config_error(tmp_path, capsys, command):
    # the second value must neither silently win nor be dropped, and the
    # repeat is reported before the (missing) dataset is read
    cfg = tmp_path / "twice.cfg"
    write_cfg(
        cfg, dataset=str(tmp_path / "none"), method="MvOPLS", k="2",
        train_fraction="0.5", repeats="1",
    )
    cfg.write_text(cfg.read_text() + "k = 1\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "twice.cfg, line 8: config key 'k' is set twice" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_classify_and_one_cell_sweep_agree(toy_dir, tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "one.cfg", dataset=str(toy_dir), method="MvDA", k="2",
        train_fraction="0.5", repeats="3", seed="2", **{"lambda": "0.1"},
    )
    assert main(["classify", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    _, mean, std = (tmp_path / "c" / "classify.csv").read_text().splitlines()[1].split(",")
    row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["2", "0.5", "0.1", ""]
    assert row[4:] == [mean, std]


def test_bad_integer_value(toy_dir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", dataset=str(toy_dir), k="two")
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "could not parse" in capsys.readouterr().err
    cfg = write_cfg(
        tmp_path / "bad2.cfg", dataset=str(toy_dir), k="1",
        train_fraction="0.5", repeats="x",
    )
    assert main(["classify", "--config", cfg]) == 2
    assert "expected an integer" in capsys.readouterr().err


def test_unknown_method(toy_dir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", dataset=str(toy_dir), method="PLS", k="1")
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "unknown method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, field",
    [
        ({"method": "MvOPLS", "gamma": "nan"}, "gamma"),
        ({"method": "MLDA", "lambda": "inf"}, "lam"),
    ],
)
def test_non_finite_hyperparameters_are_config_errors(
    toy_dir, tmp_path, capsys, keys, field
):
    cfg = write_cfg(tmp_path / "bad.cfg", dataset=str(toy_dir), k="1", **keys)
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert f"{field} must be finite and nonnegative" in capsys.readouterr().err


def test_k_beyond_dimension(toy_dir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", dataset=str(toy_dir), k="99")
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "out of range" in capsys.readouterr().err


def test_classify_requires_train_fraction(toy_dir, tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", dataset=str(toy_dir), k="1")
    assert main(["classify", "--config", cfg]) == 2
    assert "train_fraction" in capsys.readouterr().err


def test_singular_constraint_exits_numerically(tmp_path, capsys):
    # more dimensions than samples with gamma = 0: Cholesky must fail
    gen = write_cfg(
        tmp_path / "gen.cfg", classes="2", views="2", samples="10", dims="12,12"
    )
    data = tmp_path / "thin"
    assert main(["gen-toy", "--config", gen, "--out", str(data)]) == 0
    cfg = write_cfg(
        tmp_path / "fit.cfg", dataset=str(data), method="MvOPLS", k="1",
        gamma="0",
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_one_singular_view_block_exits_numerically(tmp_path, capsys):
    # a dead feature in the middle view: with gamma = 0 only that view's
    # block of the MvOPLS constraint is singular, exactly
    rng = np.random.default_rng(1)
    data = tmp_path / "dead"
    data.mkdir()
    for s, d in enumerate((3, 2, 3), start=1):
        X = rng.standard_normal((30, d))
        if s == 2:
            X[:, 1] = 0.0
        np.savetxt(data / f"view_{s}.csv", X, delimiter=",")
    np.savetxt(data / "labels.csv", np.repeat([1, 2, 3], 10), fmt="%d")
    cfg = write_cfg(
        tmp_path / "fit.cfg", dataset=str(data), method="MvOPLS", k="1",
        gamma="0",
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 3
    assert "not positive definite" in capsys.readouterr().err
    cfg = write_cfg(tmp_path / "ok.cfg", dataset=str(data), method="MvOPLS", k="1")
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 0


def test_overflowing_data_exits_numerically(tmp_path, capsys):
    # finite entries near 1e160 pass data validation but overflow the pencil
    rng = np.random.default_rng(0)
    data = tmp_path / "huge"
    data.mkdir()
    for s, d in enumerate((3, 2), start=1):
        np.savetxt(data / f"view_{s}.csv", 1e160 * rng.standard_normal((12, d)),
                   delimiter=",")
    np.savetxt(data / "labels.csv", np.repeat([1, 2, 3], 4), fmt="%d")
    cfg = write_cfg(tmp_path / "fit.cfg", dataset=str(data), method="MvOPLS", k="1")
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "m")]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "RuntimeWarning" not in err


def test_seed_flag_overrides_config(toy_dir, tmp_path):
    cfg = write_cfg(
        tmp_path / "cls.cfg", dataset=str(toy_dir), method="MvLDA", k="2",
        train_fraction="0.5", repeats="2", seed="0",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["classify", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
    assert main(["classify", "--config", cfg, "--out", str(b), "--seed", "7"]) == 0
    assert (a / "classify.csv").read_text() == (b / "classify.csv").read_text()
