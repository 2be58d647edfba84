"""Command-line entry point.

Subcommands: train, eval, predict, gradcheck, synth, sweep-lr. Exit codes
are a stable contract: 0 ok, 1 check failure, else the code the error's class
declares in ``errors``: 2 config error or a path that cannot be read or
written, 3 data error (also shape and contract errors), 4 numeric failure, 5
checkpoint corruption.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DatasetSpec, check_crop, load_split, read_ppm, save_sample, synth_generate,
                   write_pgm)
from .errors import AusegError, ConfigError, DataError
from .losses_metrics import eval_report_csv, format_eval_report
from .runconfig import RunConfig, load_config, parse_config_text
from .svgplot import write_loss_svg
from .tensor import Tensor
from .training import (EpochRow, evaluate, format_sweep_report, init_rng, parse_lrs,
                       sweep_report_csv, train)
from .unet import build_model, check_extents, predict_labels
from .verification import format_gradcheck_table, run_gradcheck_suite

EXIT_OK = 0
EXIT_CHECK = 1


def _load_run(cfg: RunConfig):
    """A run's training and validation samples and loss config. Before any
    training, every crop must fit its training image, and the model must take
    every extent it will see: the crop (or whole training image) and each
    validation image."""
    if not cfg.data_root:
        raise ConfigError("config key data_root must point at the dataset")
    train_samples, val_samples = (
        load_split(DatasetSpec(root=Path(cfg.data_root), split=split,
                               num_classes=cfg.num_classes, ignore_index=cfg.ignore_index))
        for split in ("train", "val"))
    unet_cfg = cfg.unet_config()
    for s in train_samples:
        _, h, w = s.image.shape
        if cfg.crop_h > 0:
            check_crop(cfg.crop_h, cfg.crop_w, h, w)
        check_extents(unet_cfg, cfg.crop_h or h, cfg.crop_w or w)
    for s in val_samples:
        check_extents(unet_cfg, *s.image.shape[1:])
    return train_samples, val_samples, cfg.loss_config(
        train_labels=[s.label for s in train_samples])


def _train_run(cfg: RunConfig, data, out_dir: Path) -> EpochRow:
    """Train ``cfg``'s model on ``data``, what ``_load_run`` returned, and write the
    five run artifacts into ``out_dir``; returns the best epoch's log row."""
    train_samples, val_samples, loss_cfg = data
    settings = cfg.train_settings(loss_cfg)
    model = build_model(cfg.unet_config(), init_rng(cfg.seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = cfg.resolved_text()
    (out_dir / "resolved.cfg").write_text(resolved)
    result = train(model, train_samples, val_samples, settings, log_line=print)
    (out_dir / "trainlog.csv").write_text(result.log.to_csv())
    rows = result.log.rows
    write_loss_svg(out_dir / "losscurve.svg", [r.epoch for r in rows],
                   [r.train_loss for r in rows], [r.val_loss for r in rows])
    save_checkpoint(out_dir / "best.ckpt", resolved, result.best_state)
    save_checkpoint(out_dir / "final.ckpt", resolved, model.state_arrays())
    best = result.log.best_row()
    print(f"done: best epoch {best.epoch} val_loss {best.val_loss:.6f} "
          f"mIoU {best.val_miou:.4f} PA {best.val_pa:.4f}")
    return best


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    _train_run(cfg, _load_run(cfg), Path(args.out))
    return EXIT_OK


def _out_file(path: str | Path) -> Path:
    """An output file's path, checked before any work: an existing directory, or a
    path whose parent directory is missing, is a config error naming it."""
    out = Path(path)
    if out.is_dir():
        raise ConfigError(f"output file {path} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"output file {path}: directory {out.parent} does not exist")
    return out


def _model_from_checkpoint(ckpt_path):
    config_text, params = load_checkpoint(ckpt_path)
    cfg = parse_config_text(config_text)
    model = build_model(cfg.unet_config(), init_rng(cfg.seed))
    model.load_state_arrays(params)
    return cfg, model


def cmd_eval(args) -> int:
    # the CSV twin's path is checked before any evaluation: --out before the checkpoint
    # loads, the default beside the checkpoint once it has loaded (a missing one exits 5)
    csv_path = _out_file(args.out) if args.out else None
    cfg, model = _model_from_checkpoint(args.ckpt)
    csv_path = csv_path or _out_file(Path(args.ckpt).parent / f"eval_{args.split}.csv")
    spec = DatasetSpec(root=Path(args.data), split=args.split,
                       num_classes=cfg.num_classes, ignore_index=cfg.ignore_index)
    samples = load_split(spec)
    # "inverse" class weights are recomputed from the scored split here; that
    # affects only the printed loss, never mIoU/PA
    loss_cfg = cfg.loss_config(train_labels=[s.label for s in samples])
    val_loss, cm = evaluate(model, samples, loss_cfg, cfg.batch_size)
    report = format_eval_report(cfg.model_name, cm)
    print(report, end="")
    print(f"split {args.split}: loss {val_loss:.9g}")
    csv_path.write_text(eval_report_csv(cfg.model_name, cm))
    return EXIT_OK


def cmd_predict(args) -> int:
    out = _out_file(args.out)
    _, model = _model_from_checkpoint(args.ckpt)
    image_path = Path(args.image)
    if not image_path.is_file():
        raise DataError(f"image not found: {image_path}")
    rgb = read_ppm(image_path)
    x = Tensor(rgb.astype(np.float64).transpose(2, 0, 1)[None] / 255.0)
    labels = predict_labels(model, x)[0]
    if labels.max() > 255:
        raise DataError("predicted class index exceeds PGM range")
    write_pgm(out, labels.astype(np.uint8))
    print(f"wrote {args.out}")
    return EXIT_OK


def _check_flags(args, **lows) -> None:
    """Each flag in ``lows`` below its bound is a config error naming it, before any work."""
    for flag, lo in lows.items():
        if getattr(args, flag) < lo:
            raise ConfigError(f"--{flag} must be at least {lo}, got {getattr(args, flag)}")


def cmd_gradcheck(args) -> int:
    _check_flags(args, seed=0)
    results = run_gradcheck_suite(seed=args.seed, tol_override=args.tolerance)
    print(format_gradcheck_table(results), end="")
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return EXIT_CHECK
    print("all gradient checks passed")
    return EXIT_OK


def cmd_synth(args) -> int:
    _check_flags(args, seed=0, count=1)
    h, w = args.size
    rng = np.random.default_rng(args.seed)
    samples = synth_generate(args.count, h, w, args.classes, rng)
    out = Path(args.out)
    for sample in samples:
        save_sample(out, sample)
    print(f"wrote {2 * len(samples)} files ({len(samples)} pairs) to {out}")
    return EXIT_OK


def cmd_sweep_lr(args) -> int:
    cfg = load_config(args.config)
    lrs = parse_lrs(args.lrs)
    data = _load_run(cfg)
    out = Path(args.out)
    for lr in lrs:    # every rate's run directory exists before any training
        (out / f"{lr:.9g}").mkdir(parents=True, exist_ok=True)
    eta_min = cfg.eta_min
    rows = []
    for lr in lrs:    # each run's resolved.cfg is the config that reproduces it
        cfg.eta_max, cfg.eta_min = lr, min(eta_min, lr)
        rows.append((lr, _train_run(cfg, data, out / f"{lr:.9g}")))
    report = format_sweep_report(rows)
    print(report, end="")
    (out / "sweep.txt").write_text(report)
    (out / "sweep.csv").write_text(sweep_report_csv(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auseg",
                                     description="attention-gated Unet segmentation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", default=None, help="CSV twin path (default: next to ckpt)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="segment one PPM image into a PGM label map")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification suite")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every unit's tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=int, nargs=2, metavar=("H", "W"), default=(64, 64))
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep-lr", help="train once per learning rate and tabulate")
    p.add_argument("--config", required=True)
    p.add_argument("--lrs", required=True, help="comma-separated learning rates")
    p.add_argument("--out", required=True, help="one run directory per rate, and the table")
    p.set_defaults(func=cmd_sweep_lr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AusegError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # a path that cannot be read or written; the OS message names it
        print(f"{ConfigError.prefix}: {exc}", file=sys.stderr)
        return ConfigError.exit_code


def entry() -> None:
    raise SystemExit(main())
