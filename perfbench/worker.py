"""One workload in its own process: set up, time passes, check every output.

Started by run.py, which fixes the BLAS thread count and PYTHONPATH.  Prints
one JSON line: when set-up ended (``time.monotonic``, a clock shared by all
processes of the machine), the pass times, the operation counts, the peak
resident set and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import aahwalk.cli  # binds aahwalk; imports experiment and every layer
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](aahwalk, args.out, args.seed)
    workload.warm_up()
    workload.clear_outputs()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = spans.Tracer(aahwalk) if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    layer_rows: list[dict[str, float]] = []
    attempted = failed = 0
    unexpected: set[str] = set()
    points: set[int] = set()
    start = time.perf_counter()
    while True:
        if tracer is not None and len(untraced) > len(traced):
            tracer.counts.clear()
            first = len(tracer.spans)
            tracer.install()
            t0 = time.perf_counter()
            tracer.span("bench.pass", workload.run_pass)
            traced.append(time.perf_counter() - t0)
            tracer.uninstall()
            layer_rows.append(spans.pass_metrics(tracer.spans[first:], tracer.counts))
        else:
            t0 = time.perf_counter()
            workload.run_pass()
            untraced.append(time.perf_counter() - t0)

        pass_points = 0
        for path in workload.outputs():
            problems, n_points = workloads.read_and_check(path)
            attempted += 1
            pass_points += n_points
            if problems:
                failed += 1
                unexpected.update(set(problems) - workloads.KNOWN_FAULTS)
        points.add(pass_points)
        workload.clear_outputs()

        elapsed = time.perf_counter() - start
        typical = statistics.median(untraced + traced)
        if (tracer is None or traced) and elapsed + typical > args.seconds:
            break

    result = {
        "ready": ready,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "points_per_pass": max(points),
        "attempted": attempted,
        "failed": failed,
        "unexpected": sorted(unexpected),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = {name: statistics.median(row[name] for row in layer_rows)
                            for name in layer_rows[0]}
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
