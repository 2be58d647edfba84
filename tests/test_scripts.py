"""The experiment scripts under scripts/ run end to end at one epoch, and
``run_lr_sweep.py`` rejects a bad ``--lrs`` or ``--out`` with exit 2 before it makes any
data."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ablation_prints_both_rows(capsys):
    assert load_script("run_ablation").run(["--epochs", "1"]) == 0
    out = capsys.readouterr().out
    assert "Model                   mIoU      PA" in out
    assert "\nattention-unet " in out and "\nplain-unet " in out


def test_lr_sweep_prints_table(capsys):
    assert load_script("run_lr_sweep").run(["--epochs", "1", "--lrs", "0.003"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Learning Rate | mIoU | PA"
    assert lines[1].startswith("0.003 | ")


@pytest.mark.parametrize("lrs", ["0", "abc", ","])
def test_lr_sweep_bad_lrs_exit_2_before_data(monkeypatch, capsys, lrs):
    script = load_script("run_lr_sweep")

    def fail(*args, **kwargs):
        raise AssertionError("the sweep generated data")

    monkeypatch.setattr(script, "synth_generate", fail)
    assert script.run(["--lrs", lrs]) == 2
    assert capsys.readouterr().err.startswith("config error: --lrs must ")


def test_lr_sweep_out_naming_a_file_exit_2_before_data(monkeypatch, capsys, tmp_path):
    script = load_script("run_lr_sweep")

    def fail(*args, **kwargs):
        raise AssertionError("the sweep generated data")

    monkeypatch.setattr(script, "synth_generate", fail)
    taken = tmp_path / "afile"
    taken.write_text("")
    assert script.run(["--lrs", "0.003", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(taken) in err
