"""Benchmark of the cordsheaf package: one workload per run.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports the package from its ``src``
directory.  Set-up (importing the package afresh, building the instances
and the request pool) is done at least three times and for at least a
second, and its median reported; then whole rounds of the workload run
until ``--seconds`` have passed, and every output is checked.  With
``--trace 0`` every time is scaled to a reference machine speed sampled
during the run (``speed.py``).  The last line of standard output is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separately traced run with ``--trace 1``.  Results and traces
are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import SpeedSampler  # noqa: E402
from tracing import Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS, Measurement  # noqa: E402

SETUPS = 3           # set-ups at least
SETUP_SECONDS = 1.0  # and set-ups until this much program time has passed


class MissingProgram(RuntimeError):
    pass


def load_program():
    """Import the package from the checkout's source tree, afresh."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cordsheaf", "__init__.py")):
        raise MissingProgram(f"no package source under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "cordsheaf" or n.startswith("cordsheaf.")]:
        del sys.modules[name]
    cs = importlib.import_module("cordsheaf")
    if not os.path.abspath(cs.__file__).startswith(src + os.sep):
        raise MissingProgram(f"cordsheaf imported from {cs.__file__}, not from {src}")
    return cs


def end_to_end(m: Measurement, setup_times: list[float], lat: list[float]) -> dict:
    """The end-to-end metrics from set-up times and operation latencies."""
    if len(lat) >= 1000:
        tail = statistics.quantiles(lat, n=100)[98]
    else:
        # too few samples for a 99th percentile (one operation per instance):
        # the median over rounds of each round's slowest operation
        per_round = len(lat) // m.rounds
        tail = statistics.median(max(lat[k:k + per_round]) for k in range(0, len(lat), per_round))
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (m.work / sum(lat), "1/s"),
        "p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "p99_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the traced run reports no times that need scaling, and its profiler
    # would count the sampler's kernel
    speed = SpeedSampler()
    if not args.trace:
        speed.start()
    try:
        setups = []
        while len(setups) < SETUPS or setups[-1][1] - setups[0][0] < SETUP_SECONDS:
            start = speed.now()
            workload = WORKLOADS[args.workload](load_program(), args.seed)
            setups.append((start, speed.now()))
            # the previous import's modules are cyclic garbage: collect it, so
            # that peak memory does not grow with the number of set-ups
            gc.collect()

        tracer = Tracer(args.trace == 1)
        m = Measurement(speed.now)
        start = perf_counter()
        while m.rounds == 0 or perf_counter() - start < args.seconds:
            if m.rounds and workload.fresh_program_each_round:
                workload.load(load_program())
            workload.run_round(tracer, m)
            m.rounds += 1
        wall = perf_counter() - start
    except MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        speed.stop()
    setup_times = [speed.scaled(*interval) for interval in setups]
    latencies = [speed.scaled(*interval) for interval in m.intervals]

    problems = workload.problems()
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": m.rounds, "operations": len(m.intervals), "round_s": wall / m.rounds,
            "setup_times_s": setup_times, "problems": len(problems),
            "speed_samples": len(speed.kernel_s), "sampler_s": speed.spent}
    if speed.kernel_s:
        # above 1: the machine ran slower than the reference speed
        info["speed_factor"] = speed.factor(speed.times[0], speed.times[-1])
        unscaled = end_to_end(m, [end - start for start, end in setups],
                              [end - start for start, end in m.intervals])
        info["unscaled"] = {k: v["value"] for k, v in unscaled.items()}
    if hasattr(workload, "repeated_share"):
        info["repeated_share"] = workload.repeated_share
    if args.trace:
        metrics = per_layer(workload.cs, tracer, m.rounds, *workload.denominators())
        metrics["trace.round_s"] = {"value": wall / m.rounds, "unit": "s"}
    else:
        metrics = end_to_end(m, setup_times, latencies)
    result = {"correct": not problems, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "info": info, "problems": problems[:100]}, fh, indent=1)
    if args.trace:
        with open(os.path.join(out, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "span_self_s": tracer.span_self_seconds()}, fh)
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
