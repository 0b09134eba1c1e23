"""One benchmark run in this process: set-up, timed rounds, checks, one JSON line.

``run.py`` starts this file in a fresh process and passes the moment it
started it (``--t0-ns``), so ``setup_s`` counts interpreter start-up,
the import of the library and the generation of the raw inputs.

A round runs every task of the workload once.  ``wall_s`` is the median
round time, from the first library call of the round to the last.
Rounds repeat until ``--seconds`` have passed since the first one
started; the checks of the first round and the fingerprint comparison
of the others run outside the timed region.  With ``--trace 1`` the
first half of the time runs untraced rounds and the second half traced
ones, and the result holds the per-layer metrics and the tracing
overhead instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from checks import CheckFailed
from tracing import Tracer
from workloads import WORKLOADS, fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, default=None, help="monotonic start time of the process")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must lie in [0, 2**40)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import ``amenability`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "amenability", "__init__.py")):
        raise SystemExit(f"no library sources under {SRC}")
    sys.path.insert(0, SRC)
    import amenability

    if os.path.dirname(os.path.dirname(os.path.abspath(amenability.__file__))) != SRC:
        raise SystemExit(f"imported amenability from {amenability.__file__}, not from {SRC}")
    return amenability


class Calls:
    """Calls into the library, counted: each is one attempted operation."""

    def __init__(self):
        self.attempted = 0

    def __call__(self, fn, *args):
        self.attempted += 1
        return fn(*args)


class Runner:
    """Runs rounds of one workload and keeps the round times and the check results."""

    def __init__(self, A, tasks):
        self.A = A
        self.tasks = tasks
        self.calls = Calls()
        self.failed = 0
        self.problems = []
        self.reference = None

    def round(self, full_check: bool) -> float:
        outputs = []
        start = time.perf_counter()
        for task in self.tasks:
            try:
                outputs.append(task.run(self.A, self.calls))
            except Exception:  # a failed operation is counted and reported, the run goes on
                self.failed += 1
                outputs.append(None)
                print(f"{task.name}: operation failed\n{traceback.format_exc()}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        prints = [None if out is None else fingerprint(out) for out in outputs]
        if self.reference is None:
            self.reference = prints
        elif prints != self.reference:
            self.problems.append("a round's outputs differ from the first round's")
        if full_check:
            for task, out in zip(self.tasks, outputs):
                if out is None:
                    continue
                try:
                    task.check(out)
                except CheckFailed as exc:
                    self.problems.append(f"{task.name}: {exc}")
        return elapsed

    def rounds(self, seconds: float, before_round=None) -> list:
        """Whole rounds until ``seconds`` have passed; the first is checked in full."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            if before_round is not None:
                before_round()
            times.append(self.round(full_check=not times))
        return times


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_record(args, record) -> None:
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    try:
        os.makedirs(RUNS, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    except OSError as exc:
        print(f"could not write {path}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    t0_ns = time.monotonic_ns()
    args = parse_args(argv)
    if args.t0_ns is not None:
        t0_ns = args.t0_ns
    A = import_library()
    tasks = WORKLOADS[args.workload](args.seed)
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9

    runner = Runner(A, tasks)
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.trace:
        plain = runner.rounds(args.seconds / 2)
        tracer = Tracer()
        tracer.install(A)
        traced = runner.rounds(args.seconds / 2, before_round=tracer.begin_round)
        metrics = tracer.metrics(A.CHUNK)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        record.update(untraced_rounds=plain, traced_rounds=traced, spans=tracer.span_records())
    else:
        times = runner.rounds(args.seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": statistics.median(times), "setup_s": setup_s, "peak_rss_mib": peak_mib}
        record.update(rounds=times)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": not runner.problems,
        "attempted": runner.calls.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(problems=runner.problems, result=result)
    write_record(args, record)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
