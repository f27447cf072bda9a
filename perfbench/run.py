"""Benchmark of the oversmooth package: end-to-end metrics and a per-layer trace.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload study --seed 3 --seconds 40 --trace 0

``--trace 0`` sets up the workload three times, then runs rounds of it for
about ``--seconds`` seconds (at least one) and reports the end-to-end
metrics, in CPU time rescaled to a reference host speed by
``hostclock.Probe``. ``--trace 1`` runs one untraced round and one round
with the outside-in wrappers of ``spans.py`` installed, and reports the
per-layer metrics of the traced round plus the tracing overhead, in plain
CPU seconds; it also writes every span to
``.perfbench/trace-<workload>-<seed>.jsonl``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it, starting with ``#``, record the
host and the workload's own numbers.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
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
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3

UNITS = {"setup_s": "s", "round_cpu_s": "s", "stage_cpu_s": "s",
         "op_cpu_ms.p50": "ms", "op_cpu_ms.p90": "ms", "peak_rss_mb": "MB"}


def _host(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def _measure(workload, tally, seconds: float):
    """Rounds until the next one would end past ``seconds`` of wall time;
    at least one. Returns the rounds and the wall seconds each took."""
    deadline = time.perf_counter() + seconds
    rounds, walls = [], []
    while True:
        start = time.perf_counter()
        rounds.append(workload.run_round(tally))
        workload.check(tally)
        walls.append(time.perf_counter() - start)
        if time.perf_counter() + walls[-1] > deadline:
            return rounds, walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "corpus", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One BLAS thread, fixed before numpy loads: on a small shared host the
    # numbers then measure the program, not the scheduler.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # every run compiles the same sources
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostclock  # loads numpy

    # The untraced run rescales every CPU time to the reference host speed
    # (hostclock.py); the traced run reports plain CPU seconds.
    if args.trace:
        return _run(args, None)
    with hostclock.Probe() as probe:
        return _run(args, probe)


def _clock(probe):
    """Start-stop timer: rescaled CPU seconds with a probe, else CPU seconds."""
    start = time.thread_time()

    def stop():
        end = time.thread_time()
        return end - start if probe is None else probe.normalise(start, end)

    return stop


def _run(args, probe) -> int:
    import numpy as np

    stop = _clock(probe)
    try:
        import oversmooth
        import spans
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(oversmooth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: oversmooth was imported from {oversmooth.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = stop()

    scratch = ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            workload = cls(work, args.seed)
            stop = _clock(probe)
            workload.setup()
            setups.append(stop())
        tally = workloads.Tally(probe)
        if args.trace:
            metrics, tracer = _traced(workload, tally, spans)
            scratch.mkdir(exist_ok=True)
            tracer.write_jsonl(
                scratch / f"trace-{args.workload}-{args.seed}.jsonl",
                {"host": _host(np), "workload": args.workload,
                 "seed": args.seed, "clock": "process CPU seconds"})
        else:
            rounds, walls = _measure(workload, tally, args.seconds)
            ops = [t for r in rounds for t in r.ops]
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "round_cpu_s": statistics.median(r.total for r in rounds),
                "stage_cpu_s": statistics.median(r.stage for r in rounds),
                "op_cpu_ms.p50": 1e3 * _percentile(ops, 50),
                "op_cpu_ms.p90": 1e3 * _percentile(ops, 90),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print("# " + json.dumps({
                "workload": args.workload, "seed": args.seed,
                "rounds": len(rounds), "ops": len(ops),
                "round_wall_s": walls, "calls_cpu_s": tally.raw_s,
                "import_s": import_s, "setup_runs_s": setups,
                "probes": len(probe.took),
                "probe_median_s": statistics.median(probe.took),
                "probe_cost_s": sum(probe.cost),
                **workload.summary(rounds),
                "fail_frac": tally.failed / max(tally.attempted, 1)}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("# host " + json.dumps(_host(np)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value,
                           "unit": UNITS.get(name) or spans.unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def _traced(workload, tally, spans):
    """One untraced then one traced round; per-layer metrics of the latter."""
    untraced = workload.run_round(tally)
    workload.check(tally)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = workload.run_round(tally)
    workload.check(tally)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced.total - untraced.total
    metrics["trace.spans"] = len(tracer.spans)
    print(f"# traced round {traced.total:.3f} CPU s, untraced "
          f"{untraced.total:.3f} CPU s")
    return metrics, tracer


if __name__ == "__main__":
    sys.exit(main())
