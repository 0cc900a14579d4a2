"""Benchmark of aahwalk: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the package is imported from ./src.  Each run
first executes the sector reference's self-tests, then starts the workload
in processes of its own with the BLAS/OpenMP thread count fixed to
BLAS_THREADS.  Without tracing, SETUPS processes are set up one after
another; the last of them also times passes for S seconds (closed loop: one
config at a time).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 2
SETUPS = 3
RUN_LIMIT_S = 170.0


def _worker_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(argv: list[str], env: dict[str, str], deadline: float) -> tuple[dict, float]:
    """Run one worker to its end; returns its result and its spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "aahwalk", "__init__.py")):
        print("perfbench: no package at ./src/aahwalk; run from the repository root",
              file=sys.stderr)
        return 2
    out = os.path.abspath(os.path.join(".perfbench_out", args.workload))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    self_test_problems = [what for what, ok in reference.self_test() if not ok]
    env = _worker_env(src)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    try:
        setups = []
        for _ in range(0 if args.trace else SETUPS - 1):
            res, spawned = _start_worker(argv + ["--setup-only"], env, deadline)
            setups.append(res["ready"] - spawned)
        res, spawned = _start_worker(argv, env, deadline)
        setups.append(res["ready"] - spawned)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    untraced, traced = res["untraced_pass_s"], res["traced_pass_s"]
    pass_s = statistics.median(untraced)
    if args.trace:
        layers = dict(res["layers"], **{"trace.overhead_s": statistics.median(traced) - pass_s})
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "steps_per_s": {"value": res["points_per_pass"] / pass_s, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    problems = self_test_problems + res["unexpected"]
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"setups_s={[round(s, 4) for s in setups]} "
          f"untraced_pass_s={[round(p, 4) for p in untraced]} "
          f"traced_pass_s={[round(p, 4) for p in traced]}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
