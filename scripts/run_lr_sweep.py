#!/usr/bin/env python3
"""Learning-rate sensitivity sweep on the synthetic task.

Default grid mirrors the full-scale study ({0.005 ... 0.0005}); pass --lrs
to override. Each rate gets a full train + best-checkpoint eval with
identical seeds and data, and the table keeps the grid order.

Usage: python scripts/run_lr_sweep.py [--lrs 0.005,0.0005] [--epochs 30] [--out runs/sweep]
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from auseg.data import synth_generate
from auseg.errors import ConfigError
from auseg.losses_metrics import LossConfig
from auseg.training import (CosineSchedule, TrainSettings, format_sweep_report, lr_sweep,
                            parse_lrs, sweep_report_csv)
from auseg.unet import UnetConfig


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lrs", default="0.005,0.003,0.002,0.001,0.0005")
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else None
    try:
        lrs = parse_lrs(args.lrs)
        if out:
            out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        # an --out that cannot be made is a config error; the OS message names the path
        print(f"{ConfigError.prefix}: {exc}", file=sys.stderr)
        return ConfigError.exit_code

    train_s = synth_generate(64, 32, 32, 3, np.random.default_rng(100))
    val_s = synth_generate(16, 32, 32, 3, np.random.default_rng(200))
    cfg = UnetConfig(in_channels=3, num_classes=3, depth=2, base_channels=8,
                     reduction_ratio=4, spatial_kernel=7, dropout_rate=0.0)
    settings = TrainSettings(epochs=args.epochs, batch_size=8, seed=args.seed,
                             loss=LossConfig(),
                             schedule=CosineSchedule(eta_max=lrs[0], eta_min=1e-6,
                                                     total_epochs=args.epochs),
                             patience=args.epochs, jitter_delta=0.02)

    rows = lr_sweep(cfg, train_s, val_s, settings, lrs)
    report = format_sweep_report(rows)
    print(report, end="")
    if out:
        (out / "sweep.txt").write_text(report)
        (out / "sweep.csv").write_text(sweep_report_csv(rows))
    return 0


if __name__ == "__main__":
    sys.exit(run())
