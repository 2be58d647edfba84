#!/usr/bin/env python3
"""The paper's studies at desk scale on the synthetic dataset, each an ``auseg`` run.

Generates the train/val splits once, sweeps the attention-gated model (attention-unet)
over the full-scale learning-rate grid, trains its twin without attention gates
(plain-unet) on the same seed, data and schedule, and evaluates both at eta_max 0.003.
Under --out it leaves data/, one config per model, attention-unet/ with one run
directory per rate and sweep.{txt,csv}, and plain-unet/. A run directory holds
resolved.cfg, trainlog.csv, losscurve.svg, best.ckpt and final.ckpt, and the two
evaluated ones eval_val.csv. Desk-scale numbers measure the harness, not the
full-resolution benchmark.

Usage: python scripts/run_synthetic_experiment.py [--out runs/synthetic] [--seed 7] [--epochs 30]
"""
import argparse
import sys
from pathlib import Path

from auseg.cli import main as cli
from auseg.errors import ConfigError
from auseg.runconfig import parse_config_text

LRS = "0.005,0.003,0.002,0.001,0.0005"  # the full-scale study's grid
CONFIG = """\
seed = {seed}
epochs = {epochs}
batch_size = 8
data_root = {data}
model_name = {name}
num_classes = 3
depth = 2
base_channels = 8
attention_enabled = {attention}
reduction_ratio = 4
spatial_kernel = 7
dropout_rate = 0.0
eta_max = 0.003
eta_min = 1e-06
patience = {epochs}
jitter_delta = 0.02
flip_p = 0.5
"""


def configs(out: Path, seed: int, epochs: int) -> dict[str, str]:
    """Each model's config text, by model name."""
    return {name: CONFIG.format(seed=seed, epochs=epochs, data=out / "data", name=name,
                                attention=attention)
            for name, attention in (("attention-unet", "true"), ("plain-unet", "false"))}


def studies(out: Path, texts: dict[str, str]):
    """Each ``auseg`` command line in turn; a model's config is written once the
    data directory, and so ``out``, exists."""
    data = out / "data"
    for split, count, data_seed in (("train", 64, 100), ("val", 16, 200)):
        yield ["synth", "--out", str(data / split), "--count", str(count),
               "--size", "32", "32", "--classes", "3", "--seed", str(data_seed)]
    for name, text in texts.items():
        (out / f"{name}.cfg").write_text(text)
    yield ["sweep-lr", "--config", str(out / "attention-unet.cfg"), "--lrs", LRS,
           "--out", str(out / "attention-unet")]
    yield ["train", "--config", str(out / "plain-unet.cfg"), "--out", str(out / "plain-unet")]
    # attention-unet's sweep run at the configs' eta_max, and its twin
    for run_dir in (out / "attention-unet" / "0.003", out / "plain-unet"):
        yield ["eval", "--ckpt", str(run_dir / "best.ckpt"), "--data", str(data),
               "--split", "val"]


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/synthetic")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args(argv)
    out = Path(args.out)
    texts = configs(out, args.seed, args.epochs)
    try:
        for text in texts.values():    # a bad config exits before anything is written
            parse_config_text(text)
    except ConfigError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    for command in studies(out, texts):
        code = cli(command)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
