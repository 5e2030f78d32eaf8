#!/usr/bin/env python3
"""furcasep benchmark: one workload in one process.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` installs the tracer from tracing.py and prints the per-layer
metrics instead; it alternates untraced and traced operations so that it can
report its own overhead. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a report with
the machine, the metrics under the names the workload is known by, and the
sample counts. perfbench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up is repeated at least this often and for at least this long; setup_s is the median
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it


def import_package() -> None:
    """Use the furcasep source of this checkout, never an installed copy."""
    if not (SRC / "furcasep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no furcasep source under {SRC}")
    sys.path.insert(0, str(SRC))
    import furcasep

    if Path(furcasep.__file__).resolve().parent != SRC / "furcasep":
        sys.exit(f"perfbench: imported furcasep from {furcasep.__file__}, not from {SRC}")


def _blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, work: Path) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(args.workload) if args.trace else None
    if tracer:
        tracer.install()
    setup_seconds = []
    repeats, budget = (1, 0.0) if tracer else (SETUP_REPEATS, SETUP_SECONDS)
    while len(setup_seconds) < repeats or sum(setup_seconds) < budget:
        directory = work / f"setup{len(setup_seconds)}"
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(directory)
        setup_seconds.append(time.perf_counter() - t0)
    if tracer:
        tracer.end_setup()

    traced_flags = []  # per timed operation, in order: was it traced?
    rounds = round_start = 0
    if tracer:
        def alternate() -> None:
            # Tracing flips before every operation, so that traced and
            # untraced samples see the same machine state, and each position
            # in a round flips between rounds, so both see the same mix.
            traced = (len(traced_flags) - round_start + rounds) % 2 == 1
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            traced_flags.append(traced)

        workload.before_op = alternate
    begin = time.perf_counter()
    workload.start()
    all_samples = []
    # run whole rounds for the time asked, and until the tail has its samples
    while (time.perf_counter() - begin < args.seconds
           or len(all_samples) - sum(traced_flags) <= TAIL_BEYOND):
        round_start = len(traced_flags)
        all_samples += workload.round()
        rounds += 1
    if tracer:
        tracer.uninstall()
    named = workload.finish()
    samples = {False: [], True: []}
    for sample, traced in itertools.zip_longest(all_samples, traced_flags, fillvalue=False):
        samples[traced].append(sample)
    untraced = samples[False]
    op_tail, tail_pct = tail(untraced)
    prefix = {"train_desk": "train_step", "separate_long": "separate", "eval_oracle": "eval_utt"}[args.workload]
    named = {
        f"{prefix}_ms_p50": (1000.0 * statistics.median(untraced), "ms"),
        f"{prefix}_ms_tail": (1000.0 * op_tail, "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "error_rate": (workload.failed / workload.attempted, "ratio"),
        **named,
    }
    if tracer:
        metrics = layer_metrics(tracer, samples, named)
    else:
        metrics = {
            "setup_s": named["setup_s"],
            "op_ms_p50": named[f"{prefix}_ms_p50"],
            "op_ms_tail": named[f"{prefix}_ms_tail"],
            "audio_s_per_s": (workload.audio_s_per_s(), "1/s"),
            "peak_rss_mb": named["peak_rss_mb"],
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "rounds": rounds,
        "samples": len(untraced),
        "traced_samples": len(samples[True]),
        "tail_percentile": tail_pct,
        "setup_s_all": setup_seconds,
        "named": as_json(named),
    }
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": as_json(metrics),
    }
    return report, result


def layer_metrics(tracer, samples: dict, named: dict) -> dict:
    """The per-layer table: the tracer's spans plus the workload's own figures."""
    tracer.check_fired()
    metrics = tracer.table()
    overhead = statistics.median(samples[True]) - statistics.median(samples[False])
    metrics["trace_overhead.op_ms_p50"] = (1000.0 * overhead, "ms")
    for name in ("train_loss_db", "eval_sdri_db", "irm_sdri_db"):
        metrics[name] = named.get(name, (0.0, "dB"))
    attempts = named.get("restart_attempts", (0, "count"))[0]
    metrics["training.restart_attempts"] = (attempts, "count")
    metrics["training.restart_useful_ratio"] = (1.0 / attempts if attempts else 0.0, "ratio")
    metrics["error_rate"] = named["error_rate"]
    return metrics


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train_desk", "separate_long", "eval_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_package()
    from tracing import TraceError
    from workloads import CheckFailed

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        report, result = run(args, work)
    except (CheckFailed, TraceError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
