"""``scripts/run_synthetic_experiment.py`` runs every study through ``auseg`` end to end
at one epoch, training each run once: the sweep's run at eta_max 0.003 is the one the
ablation evaluates. Its sweep rejects a bad ``--lrs`` before it reads any data, and an
``--out`` it cannot make or an ``--epochs 0`` exits 2 before any training."""
import contextlib
import importlib.util
import io
import itertools
from pathlib import Path

import pytest

from auseg.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"
RUN_ARTIFACTS = ["resolved.cfg", "trainlog.csv", "losscurve.svg", "best.ckpt", "final.ckpt"]
RATES = ["0.005", "0.003", "0.002", "0.001", "0.0005"]


def load_script():
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """One ``--epochs 1`` run of the script: its run directory and what it printed."""
    out = tmp_path_factory.mktemp("exp") / "exp"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert load_script().run(["--out", str(out), "--epochs", "1"]) == 0
    return out, printed.getvalue()


def test_ablation_prints_both_rows(experiment):
    out, printed = experiment
    assert "\nattention-unet " in printed and "\nplain-unet " in printed
    for run_dir in (out / "attention-unet" / "0.003", out / "plain-unet"):
        assert {p.name for p in run_dir.iterdir()} == {*RUN_ARTIFACTS, "eval_val.csv"}
    assert "attention_enabled = false" in (out / "plain-unet" / "resolved.cfg").read_text()


def test_lr_sweep_prints_table(experiment):
    out, printed = experiment
    lines = printed.splitlines()
    rows = itertools.takewhile(lambda line: line.count(" | ") == 2,
                               lines[lines.index("Learning Rate | mIoU | PA") + 1:])
    assert [row.split(" | ")[0] for row in rows] == RATES
    sweep = out / "attention-unet"
    assert {p.name for p in sweep.iterdir()} == {*RATES, "sweep.csv", "sweep.txt"}
    for lr in RATES:
        assert {p.name for p in (sweep / lr).iterdir()} - {"eval_val.csv"} == set(RUN_ARTIFACTS)
    assert [lr for lr in RATES if (sweep / lr / "eval_val.csv").exists()] == ["0.003"]
    assert not (out / "sweep").exists()


@pytest.mark.parametrize("lrs", ["0", "abc", ","])
def test_lr_sweep_bad_lrs_exit_2_before_data(monkeypatch, tmp_path, capsys, lrs):
    """The script's sweep is ``auseg sweep-lr`` on its attention-unet config."""
    def fail(*args, **kwargs):
        raise AssertionError("the sweep read data")

    monkeypatch.setattr("auseg.cli.load_split", fail)
    cfg = tmp_path / "attention-unet.cfg"
    cfg.write_text(load_script().CONFIG.format(seed=7, epochs=1, data=tmp_path / "data",
                                               name="attention-unet", attention="true"))
    assert main(["sweep-lr", "--config", str(cfg), "--lrs", lrs,
                 "--out", str(tmp_path / "attention-unet")]) == 2
    assert capsys.readouterr().err.startswith("config error: --lrs must ")


def test_out_naming_a_file_exit_2_before_training(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the script started training")

    monkeypatch.setattr("auseg.cli.train", fail)
    taken = tmp_path / "afile"
    taken.write_text("")
    assert load_script().run(["--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(taken) in err


def test_zero_epochs_exit_2_names_epochs(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the script started training")

    monkeypatch.setattr("auseg.cli.train", fail)
    out = tmp_path / "exp"
    assert load_script().run(["--out", str(out), "--epochs", "0"]) == 2
    assert capsys.readouterr().err == "config error: epochs must lie in [1, inf], got 0\n"
    assert not out.exists()    # no data split and no config was written
