"""End-to-end command line runs against generated toy data."""

import numpy as np
import pytest

from mvsubspace import load_model
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


def test_missing_config_file(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_line(toy_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset\n")
    assert main(["fit", "--config", str(bad), "--out", str(tmp_path / "m")]) == 2
    assert "line 1" in capsys.readouterr().err


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
