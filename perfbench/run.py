"""Run one auseg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 25 --trace 0

Set-up runs at least five times and for at least a second; its median is
``setup_s``. A reference case is then trained or served once and checked
against ``reference.json``; it also warms up. The timed window follows: whole
episodes until ``--seconds`` have passed, so the last one may run over. With ``--trace 1`` the first third of
the window runs untraced and the rest with every layer's spans and
``tracemalloc``; the difference in median latency is the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or its
per-layer metrics with ``--trace 1``). The line before it holds every metric
with sample counts, the workload config and the environment. A traced run
also writes it, with every span, to ``perfbench/out/``. The exit code is 1 if
any step or request failed or any output check did not hold.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import measure
from tracing import EPISODE, EVALUATE, REQUEST, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
# Set-up repeats until both hold; short set-ups get more samples.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
UNTRACED_SHARE = 1.0 / 3.0

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to a smoke-test size")
    p.add_argument("--record-reference", action="store_true",
                   help="record the reference case's outputs in reference.json and exit")
    return p.parse_args(argv)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def _blas_threads():
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read as files; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Attempted and failed steps or requests, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"FAILED {what}", file=sys.stderr)


def units_done(workload, tracer) -> int:
    """Steps (training) or eval passes plus requests (infer) recorded so far."""
    if workload.unit == "step":
        return tracer.step + 1
    return sum(1 for span in tracer.spans if span[0] in (REQUEST, EVALUATE))


def run_phase(workload, inputs, seconds: float, full: bool, first: list, tally: Tally):
    """Whole episodes until ``seconds`` have passed; the last one may run over.

    Every episode's outputs must match those of the first one in the process
    (``first`` holds them once known): the same inputs give the same outputs.
    """
    tracer = Tracer()
    started = time.perf_counter()
    if full:
        tracemalloc.start()
    try:
        with instrument(tracer, full):
            while time.perf_counter() - started < seconds:
                try:
                    with tracer.span(EPISODE):
                        outputs = workload.episode(inputs, tracer)
                    outputs.check_finite()
                    if first:
                        outputs.check_same(first[0], "episode outputs against the first episode")
                    else:
                        first.append(outputs)
                except Exception as exc:  # every failure is counted, the loop goes on
                    tally.fail(f"episode: {exc!r}")
                    traceback.print_exc(file=sys.stderr)
    finally:
        if full:
            tracemalloc.stop()
    tally.attempted += units_done(workload, tracer)
    return tracer


def reference_case(workload, size: str, scratch: Path, tally: Tally, record: bool):
    """Run the reference case once; compare with, or record, its outputs."""
    from workloads import REFERENCE_SEED, Outputs

    inputs = workload.setup(REFERENCE_SEED, scratch)
    tracer = Tracer()
    with instrument(tracer, full=False):
        outputs = workload.probed_episode(inputs, tracer)
    tally.attempted += units_done(workload, tracer)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if record:
        table.setdefault(workload.name, {})[size] = outputs.to_json()
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return
    want = table.get(workload.name, {}).get(size)
    if want is None:
        raise SystemExit(f"run.py: no reference for {workload.name} ({size}) in {REFERENCE}")
    outputs.check_finite()
    outputs.check_same(Outputs.from_json(want), "reference case")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "auseg" / "__init__.py").is_file():
        print(f"run.py: auseg sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(args.workload, args.tiny)
    size = "tiny" if args.tiny else "full"
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        if args.record_reference:
            reference_case(workload, size, scratch, tally, record=True)
            print(f"recorded {workload.name} ({size}) in {REFERENCE}")
            return 0

        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, scratch)
            setup_times.append(time.perf_counter() - t0)
        try:
            reference_case(workload, size, scratch, tally, record=False)
        except Exception as exc:  # a wrong or crashing program is a failure to report
            tally.fail(f"reference case: {exc!r}")
            traceback.print_exc(file=sys.stderr)
        first: list = []

        if args.trace:
            quiet = run_phase(workload, inputs, args.seconds * UNTRACED_SHARE, False, first, tally)
            traced = run_phase(workload, inputs, args.seconds * (1 - UNTRACED_SHARE), True,
                               first, tally)
        else:
            quiet = run_phase(workload, inputs, args.seconds, False, first, tally)
            traced = None
        e2e, counts = measure.end_to_end(workload, quiet, workload.cfg.val_n)
        e2e["setup_s"] = statistics.median(setup_times)
        e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layers = {}
        if traced is not None:
            traced_e2e, _ = measure.end_to_end(workload, traced, workload.cfg.val_n)
            ckpt = inputs.get("ckpt")
            layers = measure.per_layer(workload, traced, e2e, traced_e2e,
                                       ckpt.stat().st_size if ckpt else 0)

    tally.attempted = max(tally.attempted, tally.failed, 1)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    chosen = layers if args.trace else e2e
    metrics = {m["name"]: {"value": chosen[m["name"]], "unit": measure.unit(m["name"])}
               for m in names}
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size, "config": workload.describe(),
              "environment": environment(), "counts": counts,
              "setup_s_samples": setup_times, "end_to_end": e2e, "per_layer": layers,
              "error_rate": tally.failed / tally.attempted, "errors": tally.errors}
    _report(detail, traced)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def _report(detail: dict, traced) -> None:
    """Human-readable lines; a traced run also writes its spans under perfbench/out/."""
    env = detail["environment"]
    print(f"# {detail['workload']} seed {detail['seed']} ({detail['size']}), "
          f"numpy {env['numpy']}, {env['blas']} x{env['blas_threads']} threads, "
          f"nproc {env['nproc']}, commit {env['commit'][:12]}")
    print(f"# samples: {detail['counts']}; error_rate {detail['error_rate']:g}")
    for name, value in {**detail["end_to_end"], **detail["per_layer"]}.items():
        print(f"{name:>40} {value:14.6f} {measure.unit(name)}")
    if traced is not None:
        path = OUT / (f"{detail['workload']}-seed{detail['seed']}"
                      f"{'-tiny' if detail['size'] == 'tiny' else ''}-trace.json")
        path.write_text(json.dumps({**detail, "spans": traced.to_rows()}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
