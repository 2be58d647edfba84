import csv
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from auseg import cli
from auseg.checkpoint import load_checkpoint
from auseg.cli import main
from auseg.data import DatasetSpec, load_sample, write_ppm
from auseg.errors import (ConfigError, ContractError, CorruptionError, DataError, NumericError,
                          ShapeError)
from auseg.runconfig import RunConfig, parse_config_text
from auseg.verification import TOL_SINGLE, UNITS, UnitResult, format_gradcheck_table

FIXTURES = Path(__file__).parent / "fixtures"
# what `auseg train` writes into --out, and `sweep-lr` into each rate's directory
RUN_ARTIFACTS = ["resolved.cfg", "trainlog.csv", "losscurve.svg", "best.ckpt", "final.ckpt"]

CONFIG = """\
seed = 3
epochs = 3
batch_size = 4
data_root = {root}
num_classes = 3
depth = 1
base_channels = 4
spatial_kernel = 3
dropout_rate = 0.1
eta_max = 0.002
patience = 10
"""


def make_dataset(root):
    assert main(["synth", "--out", str(root / "train"), "--count", "8",
                 "--size", "16", "16", "--classes", "3", "--seed", "60"]) == 0
    assert main(["synth", "--out", str(root / "val"), "--count", "4",
                 "--size", "16", "16", "--classes", "3", "--seed", "61"]) == 0


def best_row(run_dir) -> dict[str, str]:
    """The row of ``trainlog.csv`` with the least validation loss, the earliest on a tie."""
    with open(run_dir / "trainlog.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return min(rows, key=lambda r: (float(r["val_loss"]), int(r["epoch"])))


def read_labels(image, label_path):
    """The label map at ``label_path``, parsed by ``load_sample`` beside ``image``."""
    spec = DatasetSpec(root=image.parent, split=".", num_classes=256)
    return load_sample(image, label_path, spec).label


def write_config(tmp, root):
    path = tmp / "run.cfg"
    path.write_text(CONFIG.format(root=root))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    data = tmp / "data"
    make_dataset(data)
    cfg = write_config(tmp, data)
    out = tmp / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return {"tmp": tmp, "data": data, "cfg": cfg, "out": out}


class TestSynth:
    def test_count_and_pairs(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--count", "8",
                     "--size", "16", "16", "--classes", "3", "--seed", "1"]) == 0
        files = sorted(tmp_path.iterdir())
        assert len(files) == 16
        assert len([f for f in files if f.name.endswith("_img.ppm")]) == 8
        assert len([f for f in files if f.name.endswith("_lab.pgm")]) == 8

    def test_fixed_seed_byte_reproducible(self, tmp_path):
        for d in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / d), "--count", "3",
                         "--size", "16", "16", "--classes", "4", "--seed", "2"]) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--count", "0"),
                                             ("--count", "-3")])
    def test_bad_flag_exit_2_before_any_work(self, tmp_path, capsys, flag, value):
        args = {"--seed": "1", "--count": "2", flag: value}
        argv = ["synth", "--out", str(tmp_path / "out"), "--size", "16", "16"]
        assert main(argv + [item for pair in args.items() for item in pair]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_artifacts_present(self, trained):
        for name in RUN_ARTIFACTS:
            assert (trained["out"] / name).is_file(), name

    def test_unknown_key_exit_2(self, trained, capsys):
        bad = trained["tmp"] / "bad.cfg"
        bad.write_text(CONFIG.format(root=trained["data"]) + "momentum = 0.9\n")
        assert main(["train", "--config", str(bad), "--out", str(trained["tmp"] / "x")]) == 2
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["alpha = 1.5", "dice_smooth = 0", "jitter_delta = 0.9",
                                      "weight_decay = -1", "patience = -3", "min_delta = -1",
                                      "eta_max = 0", "eta_min = -0.002", "eta_min = 0.01",
                                      "crop_h = -4", "reduction_ratio = 0",
                                      "dice_smooth = inf", "eta_max = inf",
                                      "weight_decay = inf", "ignore_index = -5",
                                      "ignore_index = 256", "num_classes = 1",
                                      "class_weights = 1,nan,1", "class_weights = 1,inf,1"])
    def test_out_of_range_value_exit_2_before_any_artifact(self, trained, tmp_path, capsys,
                                                           line):
        # the line replaces the key's base value: a key given twice exits 2 on its own
        key = line.split(" = ")[0]
        base = CONFIG.format(root=trained["data"]).splitlines()
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join([b for b in base if not b.startswith(key + " = ")] + [line]))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_epochs_exit_2_names_epochs(self, trained, tmp_path, capsys):
        # the schedule takes epochs as total_epochs; the message names the config's key
        base = CONFIG.format(root=trained["data"]).replace("epochs = 3", "epochs = 0")
        bad = tmp_path / "bad.cfg"
        bad.write_text(base)
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: epochs must lie in [1, inf], got 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra, key, lines", [("epochs = 2\n", "epochs", "2 and 12"),
                                                   ("threads = 1\nthreads = 1\n", "threads",
                                                    "12 and 13")])
    def test_key_given_twice_exit_2_before_any_artifact(self, trained, tmp_path, capsys,
                                                        extra, key, lines):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.format(root=trained["data"]) + extra)
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config key '{key}' given twice: lines {lines}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_retired_keys_accept_only_their_old_values(self, tmp_path):
        cfg = parse_config_text("normalization = identity\nthreads = 4\nin_channels = 3\n")
        for key in ("normalization", "threads", "in_channels"):
            assert key not in cfg.resolved_text()
        for line in ("normalization = zscore", "threads = 0", "threads = two",
                     "in_channels = 1", "in_channels = 4"):
            bad = write_config(tmp_path, tmp_path)
            bad.write_text(bad.read_text() + line + "\n")
            assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
            assert not (tmp_path / "o").exists()

    def test_readme_config_table_matches_resolved_defaults(self):
        # every key in canonical order with the default resolved.cfg echoes; the
        # "crop_h / crop_w" row stands for two keys
        table = (FIXTURES.parents[1] / "README.md").read_text().split(
            "| key | default | notes |\n")[1].split("\n\n")[0]
        lines = []
        for row in table.splitlines()[1:]:
            keys, default = (cell.strip() for cell in row.split("|")[1:3])
            default = "" if default == "(empty)" else default
            lines += [f"{key} = {default}" for key in keys.split(" / ")]
        assert lines == RunConfig().resolved_text().splitlines()

    def test_resolved_config_round_trips_every_float(self):
        # a float that 9 significant digits cannot hold is echoed in full, so the
        # checkpoint holds the config that trained; shorter floats keep their bytes
        cfg = RunConfig(eta_max=0.00123456789012, alpha=1 / 3, dropout_rate=0.0)
        text = cfg.resolved_text()
        assert parse_config_text(text) == cfg
        assert "alpha = 0.3333333333333333\n" in text and "dropout_rate = 0\n" in text
        assert "eta_min = 1e-06\n" in text

    def test_non_utf8_config_exit_2_names_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 1\n\xff\xfe\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "not UTF-8 at byte 9" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, code, message", [
        (("depth = 1", "depth = 5"), 3, "input extents 16x16 must be divisible by 32"),
        (("patience", "crop_h = 32\ncrop_w = 32\npatience"), 2,
         "crop 32x32 larger than image 16x16")], ids=["depth", "crop"])
    def test_data_that_does_not_fit_the_model_exits_before_any_artifact(
            self, trained, tmp_path, capsys, change, code, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG.format(root=trained["data"]).replace(*change))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_data_exit_3(self, trained, tmp_path):
        cfg = write_config(tmp_path, tmp_path / "nowhere")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_seeded_replay_identical_outputs(self, trained, tmp_path):
        cfg = trained["cfg"]
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["train", "--config", str(cfg), "--out", str(out),
                         "--seed", "5"]) == 0

        def stripped_log(path):
            # drop the wall-seconds column, the one non-deterministic field
            lines = (path / "trainlog.csv").read_text().splitlines()
            return [ln.rsplit(",", 1)[0] for ln in lines]

        assert stripped_log(outs[0]) == stripped_log(outs[1])
        for name in ("best.ckpt", "final.ckpt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert (outs[0] / "resolved.cfg").read_text() == (outs[1] / "resolved.cfg").read_text()
        assert (outs[0] / "losscurve.svg").read_bytes() == (outs[1] / "losscurve.svg").read_bytes()

    def test_resolved_config_echoes_seed_override(self, trained, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--config", str(trained["cfg"]), "--out", str(out),
                     "--seed", "9"]) == 0
        assert "seed = 9" in (out / "resolved.cfg").read_text()

    def test_exploding_loss_exit_4(self, trained, tmp_path, capsys):
        cfg = tmp_path / "explode.cfg"
        cfg.write_text(CONFIG.format(root=trained["data"]).replace(
            "eta_max = 0.002", "eta_max = 1e30"))
        # the run is driven to overflow on purpose; silence numpy's warnings
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_nan_weight_exit_4(self, trained, tmp_path, capsys, monkeypatch):
        # a NaN kernel entry passes conv2d's fused relu and dropout and stops the run
        build = cli.build_model

        def build_with_nan(*args):
            model = build(*args)
            model.params["enc0.conv1.kernel"].data[0, 0, 1, 1] = np.nan
            return model

        monkeypatch.setattr(cli, "build_model", build_with_nan)
        assert main(["train", "--config", str(trained["cfg"]), "--out", str(tmp_path / "o")]) == 4
        assert "numeric failure" in capsys.readouterr().err


class TestEval:
    def test_matches_trainlog_best_row(self, trained, capsys):
        best = best_row(trained["out"])
        csv_out = trained["tmp"] / "eval.csv"
        assert main(["eval", "--ckpt", str(trained["out"] / "best.ckpt"),
                     "--data", str(trained["data"]), "--split", "val",
                     "--out", str(csv_out)]) == 0
        row = csv_out.read_text().strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(float(best["miou"]), abs=1e-8)
        assert float(row[2]) == pytest.approx(float(best["pa"]), abs=1e-8)

    def test_report_shape(self, trained, capsys):
        assert main(["eval", "--ckpt", str(trained["out"] / "best.ckpt"),
                     "--data", str(trained["data"]), "--split", "val"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[1].split() == ["Model", "mIoU", "PA"]
        assert lines[2].split()[0] == "ours"
        assert "Per-class IoU:" in out

    def test_default_csv_path_a_directory_exit_2_before_evaluating(self, trained, tmp_path,
                                                                   capsys):
        ckpt = tmp_path / "best.ckpt"
        ckpt.write_bytes((trained["out"] / "best.ckpt").read_bytes())
        (tmp_path / "eval_val.csv").mkdir()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(trained["data"]),
                     "--split", "val"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert str(tmp_path / "eval_val.csv") in captured.err and "--out" not in captured.err

    def test_truncated_checkpoint_exit_5(self, trained, tmp_path):
        blob = (trained["out"] / "best.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:-9])
        assert main(["eval", "--ckpt", str(bad), "--data", str(trained["data"]),
                     "--split", "val"]) == 5

    def test_empty_split_exit_3(self, trained, tmp_path):
        (tmp_path / "test").mkdir()
        assert main(["eval", "--ckpt", str(trained["out"] / "best.ckpt"),
                     "--data", str(tmp_path), "--split", "test"]) == 3


class TestPredict:
    def test_round_trip_and_sanity_bound(self, trained, tmp_path):
        image = next(iter(sorted((trained["data"] / "train").glob("*_img.ppm"))))
        label_path = image.with_name(image.name.replace("_img.ppm", "_lab.pgm"))
        out = tmp_path / "pred.pgm"
        assert main(["predict", "--ckpt", str(trained["out"] / "best.ckpt"),
                     "--image", str(image), "--out", str(out)]) == 0
        pred = read_labels(image, out)
        truth = read_labels(image, label_path)
        assert pred.shape == truth.shape
        pa = float((pred == truth).mean())
        assert pa >= float(best_row(trained["out"])["pa"]) - 0.1

    def test_old_checkpoint_predicts_recorded_labels(self, tmp_path):
        # v1.ckpt, a depth-1 two-class model, and v1_labels.pgm, its prediction
        # for v1_image.ppm, were written by `auseg train` and `auseg predict`
        # while configs still had the `normalization` and `threads` keys
        config_text, _ = load_checkpoint(FIXTURES / "v1.ckpt")
        assert "normalization = identity" in config_text and "threads = 1" in config_text
        out = tmp_path / "pred.pgm"
        assert main(["predict", "--ckpt", str(FIXTURES / "v1.ckpt"),
                     "--image", str(FIXTURES / "v1_image.ppm"), "--out", str(out)]) == 0
        expected = read_labels(FIXTURES / "v1_image.ppm", FIXTURES / "v1_labels.pgm")
        assert np.array_equal(read_labels(FIXTURES / "v1_image.ppm", out), expected)
        assert set(np.unique(expected)) == {0, 1}

    def test_non_utf8_config_echo_exit_5(self, tmp_path, capsys):
        body = bytearray((FIXTURES / "v1.ckpt").read_bytes()[:-4])
        body[12] = 0xFF    # third byte of the config echo, after magic and length
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        assert main(["predict", "--ckpt", str(bad), "--image", str(FIXTURES / "v1_image.ppm"),
                     "--out", str(tmp_path / "o.pgm")]) == 5
        assert "config echo is not UTF-8 at byte 12" in capsys.readouterr().err

    def test_missing_image_exit_3(self, trained, tmp_path):
        assert main(["predict", "--ckpt", str(trained["out"] / "best.ckpt"),
                     "--image", str(tmp_path / "nope.ppm"),
                     "--out", str(tmp_path / "o.pgm")]) == 3

    def test_indivisible_extent_exit_3_names_multiple(self, trained, tmp_path, capsys):
        odd = tmp_path / "odd.ppm"
        write_ppm(odd, np.zeros((17, 16, 3), dtype=np.uint8))
        assert main(["predict", "--ckpt", str(trained["out"] / "best.ckpt"),
                     "--image", str(odd), "--out", str(tmp_path / "o.pgm")]) == 3
        assert "divisible by 2" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--tolerance", "1e-15"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_table_columns_align(self):
        results = [UnitResult(name, 1e-9, tol, True) for name, tol, _ in UNITS]
        results.append(UnitResult("relu", 1.0, TOL_SINGLE, False))
        lines = format_gradcheck_table(results).splitlines()
        assert {len(line) - len(line.split()[-1]) for line in lines} == {lines[0].index("status")}

    def test_negative_seed_exit_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error:") and "--seed" in err
        assert out == ""    # no unit ran

    def test_fixed_seed_reproducible_table(self, capsys):
        assert main(["gradcheck", "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["gradcheck", "--seed", "4"]) == 0
        assert capsys.readouterr().out == first


class TestSweep:
    def test_single_lr_matches_standalone_run(self, trained, tmp_path, capsys):
        sweep_out = tmp_path / "sweep"
        assert main(["sweep-lr", "--config", str(trained["cfg"]),
                     "--lrs", "0.002", "--out", str(sweep_out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2] == "Learning Rate | mIoU | PA"    # after the run's own log

        csv_lines = (sweep_out / "sweep.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "learning_rate,miou,pa"
        lr, sweep_miou, sweep_pa = csv_lines[1].split(",")
        assert float(lr) == 0.002
        # the config trains at eta_max 0.002, so the single-rate sweep must
        # reproduce the standalone run: its best-checkpoint metrics and bytes
        best = best_row(trained["out"])
        assert float(sweep_miou) == pytest.approx(float(best["miou"]), abs=1e-8)
        assert float(sweep_pa) == pytest.approx(float(best["pa"]), abs=1e-8)
        assert ((sweep_out / "0.002" / "best.ckpt").read_bytes()
                == (trained["out"] / "best.ckpt").read_bytes())

    def test_rows_follow_lrs_order_and_each_rate_keeps_its_run(self, trained, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep-lr", "--config", str(trained["cfg"]),
                     "--lrs", "0.004,0.001,0.002", "--out", str(out)]) == 0
        csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in csv_lines[1:]] == ["0.004", "0.001", "0.002"]
        for lr in ("0.004", "0.001", "0.002"):
            assert sorted(p.name for p in (out / lr).iterdir()) == sorted(RUN_ARTIFACTS)
            # each rate's echo is the config that reproduces its run
            echo = parse_config_text((out / lr / "resolved.cfg").read_text())
            assert echo.eta_max == float(lr)

    def test_bad_lrs_exit_2(self, trained, tmp_path):
        assert main(["sweep-lr", "--config", str(trained["cfg"]), "--lrs", "abc",
                     "--out", str(tmp_path / "s")]) == 2

    def test_rates_naming_one_directory_exit_2_before_data(self, trained, tmp_path,
                                                           monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("the sweep read data")

        monkeypatch.setattr("auseg.cli.load_split", fail)
        assert main(["sweep-lr", "--config", str(trained["cfg"]), "--lrs", "0.003,0.0030",
                     "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith("config error: --lrs must name each rate")
        assert not (tmp_path / "s").exists()

    @pytest.fixture
    def no_training(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the sweep started training")

        monkeypatch.setattr("auseg.cli.train", fail)

    @pytest.mark.parametrize("lrs", ["0.003,-1", "0", "0.002,nan", "0.002,inf", ","])
    def test_non_positive_lr_exit_2_before_training(self, trained, tmp_path, no_training, lrs):
        assert main(["sweep-lr", "--config", str(trained["cfg"]), "--lrs", lrs,
                     "--out", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()

    def test_out_naming_a_file_exit_2_before_training(self, trained, tmp_path, no_training,
                                                       capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["sweep-lr", "--config", str(trained["cfg"]), "--lrs", "0.002",
                     "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_data_that_does_not_fit_the_model_exit_3_before_training(
            self, tmp_path, no_training, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data / "train"), "--count", "2",
                     "--size", "16", "16", "--classes", "3"]) == 0
        assert main(["synth", "--out", str(data / "val"), "--count", "2",
                     "--size", "18", "18", "--classes", "3"]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG.format(root=data).replace("depth = 1", "depth = 2"))
        assert main(["sweep-lr", "--config", str(cfg), "--lrs", "0.002",
                     "--out", str(tmp_path / "s")]) == 3
        assert "input extents 18x18 must be divisible by 4" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 2, "config error"), (DataError, 3, "data error"), (ShapeError, 3, "error"),
    (ContractError, 3, "error"), (NumericError, 4, "numeric failure"),
    (CorruptionError, 5, "corrupt checkpoint")])
def test_error_class_sets_exit_code_and_prefix(monkeypatch, capsys, error, code, prefix):
    def fail(**kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "run_gradcheck_suite", fail)
    assert main(["gradcheck"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


@pytest.mark.parametrize("command", [
    ["predict", "--image", "{data}/val/synth0000_img.ppm", "--out", "nodir/p.pgm"],
    ["eval", "--data", "{data}", "--split", "val", "--out", "nodir/x.csv"]],
    ids=["predict", "eval"])
def test_unwritable_out_exit_2_names_path(trained, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(data=trained["data"]) for arg in command]
    assert main(argv + ["--ckpt", str(trained["out"] / "best.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and command[-1] in err


@pytest.mark.parametrize("out", ["adir", "nodir/x.out"], ids=["existing_dir", "missing_parent"])
@pytest.mark.parametrize("command", [
    ["predict", "--image", "{data}/val/synth0000_img.ppm"],
    ["eval", "--data", "{data}", "--split", "val"]], ids=["predict", "eval"])
def test_bad_out_exit_2_before_loading_checkpoint(trained, tmp_path, monkeypatch, capsys,
                                                  command, out):
    def fail(path):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    monkeypatch.setattr(cli, "_model_from_checkpoint", fail)
    argv = [arg.format(data=trained["data"]) for arg in command]
    assert main(argv + ["--out", out, "--ckpt", str(trained["out"] / "best.ckpt")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and out in captured.err
