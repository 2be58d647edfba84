"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced. It checks metric names, units and the result format, never timings.

    python3 -m pytest perfbench
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Every per-layer metric the traced run reports, whether or not BENCHMARK.json
# lists it (a time that is zero by construction on some workload is not listed).
LAYER_METRICS = (
    [f"nn_ops.{op}.{m}" for op in ("conv2d", "transposed_conv2d")
     for m in ("fwd_ms", "bwd_ms", "ms", "calls", "gflop", "gflop_per_s")]
    + [f"nn_ops.{op}.{m}" for op in ("maxpool2d", "relu", "dropout", "concat_channels")
       for m in ("fwd_ms", "bwd_ms", "ms")]
    + ["nn_ops.conv_share_pct", "attention.hybrid_attention_block.fwd_ms",
       "tensor.backward.self_ms", "tensor.record_op.calls", "unet.forward.ms",
       "losses_metrics.combined_loss.fwd_ms", "losses_metrics.combined_loss.bwd_ms",
       "losses_metrics.combined_loss.ms", "training.adamw_step.ms", "training.evaluate.ms",
       "losses_metrics.confusion_accumulate.ms", "data.batch_wait_ms", "data.read_ppm.ms",
       "data.load_split.ms", "checkpoint.load_checkpoint.ms", "checkpoint.bytes",
       "mem.forward_peak_mib", "mem.backward_peak_mib", "trace.overhead_ms",
       "trace.overhead_pct"])
ENVIRONMENT = ("python", "numpy", "blas", "blas_threads", "OPENBLAS_NUM_THREADS", "nproc", "cpu",
               "commit")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert all(name.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace",
                     str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert math.isfinite(reported["value"]), m["name"]
    detail = json.loads(detail_line)
    assert set(ENVIRONMENT) <= set(detail["environment"])
    assert detail["error_rate"] == 0
    if trace:
        assert set(LAYER_METRICS) <= set(detail["per_layer"])
    for m in SPEC["end_to_end"] + (SPEC["per_layer"] if trace else []):
        line = rf"^ *{re.escape(m['name'])} +\S+ {re.escape(m['unit'])}$"
        assert re.search(line, proc.stdout, re.M), f"no line for {m['name']} in {m['unit']}"


def test_refuses_to_run_without_the_sources(tmp_path):
    """Given only BENCHMARK.json and perfbench/, it fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
