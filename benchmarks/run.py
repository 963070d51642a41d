"""Benchmark of hayd: one workload per run, a closed loop with one client.

    python3 benchmarks/run.py --workload battery|scale|corrupt --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  Set-up (a fresh import of hayd plus input generation) is
repeated (``SETUP_REPEATS``, ``SETUP_SECONDS``) and its median reported; then operations run
back to back, each starting after the previous one ended, until ``--seconds``
have passed (at least one operation).  Every result goes through the
workload's correctness gate outside the timed call.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` the wrappers of ``spans.py`` are installed
after set-up and the result carries the per-layer metrics instead.  The line
before it is a JSON detail record (samples, op times, trace detail).
Exits 2 without a result when hayd cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # set-ups per run: at least this many,
SETUP_SECONDS = 3.0  # and until they add up to this long
UNITS = {"setup_s": "s", "op_s_p50": "s", "verdict_ok_ratio": "ratio", "peak_rss_mb": "MB"}

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import hayd from this checkout's src/, dropping any earlier import."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hayd" or m.startswith("hayd.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    hayd = importlib.import_module("hayd")
    importlib.import_module("hayd.cli")
    if Path(hayd.__file__).resolve().parent != SRC / "hayd":
        raise ImportError(f"hayd imported from {hayd.__file__}, not {SRC / 'hayd'}")
    return hayd


def setup(name, seed, repeats, seconds):
    """Set up ``repeats`` times and until ``seconds`` have passed; return the
    last workload and the set-up times."""
    times = []
    while len(times) < repeats or sum(times) < seconds:
        shutil.rmtree(WORK, ignore_errors=True)
        wl = None
        gc.collect()  # free the previous import, so repeats do not raise peak memory
        t0 = time.perf_counter()
        hayd = fresh_import()
        wl = workloads.make(name, hayd, seed, WORK / name)
        times.append(time.perf_counter() - t0)
    return wl, times


def measure(wl, seconds, tracer=None):
    """Closed loop until ``seconds`` pass; returns (op times, ok verdicts, failed ops).

    With a tracer, operations alternate between timed and counted ones, and
    the loop runs until it has at least one of each.
    """
    times, ok, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            tracer.begin(counted=len(times) % 2 == 1)
        t0 = time.perf_counter()
        try:
            result = wl.op()
        except Exception:  # a crashed operation is a wrong verdict, not a crashed run
            result = None
            traceback.print_exc()
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(times[-1])
        good = 0
        if result is not None:
            try:
                good = wl.check(result)
            except (KeyError, TypeError, ValueError):
                traceback.print_exc()
        ok += good
        failed += good != wl.verdicts
        if time.perf_counter() >= deadline and len(times) >= (2 if tracer else 1):
            return times, ok, failed


def percentile(times, q):
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        wl, setup_times = setup(args.workload, args.seed, *((1, 0) if args.trace else
                                                            (SETUP_REPEATS, SETUP_SECONDS)))
    except ImportError as exc:
        print(f"cannot import hayd from {SRC}: {exc}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        times, ok, failed = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = len(times) * wl.verdicts
    cases = {}  # op times by input: throughput over one pass, robust to slow moments
    for case, t in zip(wl.visits, times):
        cases.setdefault(case, []).append(t)
    detail = {"workload": args.workload, "seed": args.seed, "samples": len(times),
              "op_s_p90": percentile(times, 90),
              "verdicts_per_s": wl.verdicts * len(cases) / sum(
                  statistics.median(t) for t in cases.values()),
              "setup_s": setup_times, "op_s": times}
    if tracer:
        metrics, detail["trace"] = spans.summarize(tracer)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": statistics.median(times),
            "verdict_ok_ratio": ok / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
