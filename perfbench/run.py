"""Benchmark of doubleshot's allocation loop: three workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload calib-1x2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, untraced then traced,
                                                 # each run in its own process

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics (setup_s, run_s, peak_rss_mb); with ``--trace 1`` it
carries the per-layer metrics of a traced round instead.  The program is
imported from ``src/`` of the checkout; without it the run exits with 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: the dense eigensolver and matrix products then cost the
# same on any core count, and a second thread cannot add scheduling noise.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Workload names, metric units and the run length come from BENCHMARK.json,
# which needs no numpy in the parent process that runs them all.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=", ".join(WORKLOAD_NAMES) + ", or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="how long a run measures (default: run_seconds"
                        " of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics"
                        " (default 0; with all workloads, both)")
    return parser.parse_args(argv)


def env_block() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = "{name} {version}".format(**config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_one(args) -> int:
    if not (SRC / "doubleshot" / "__init__.py").is_file():
        print(f"error: no doubleshot sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = env_block()
    print("env " + json.dumps(env, sort_keys=True))
    out = workloads.measure(workload, args.seed, args.seconds, bool(args.trace))
    for name, value in out["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {UNITS[name]}")
    print(f"{args.workload} attempted = {out['attempted']} failed = {out['failed']}"
          f" correct = {out['correct']}")
    print(f"{args.workload} notes " + json.dumps(out["notes"], sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                    **out}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in out["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process: peak RSS and module caches are per process."""
    status = 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for name in WORKLOAD_NAMES:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, check=False,
            )
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
