"""threshdist benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {panels,mc_threshold,exact_laws} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's inputs are built from ``--seed``; whole rounds of
the same operations repeat until the next round would end past
``--seconds``.  The first round's outputs are checked independently, later
rounds must reproduce them exactly.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("panels", "mc_threshold", "exact_laws")
#: fresh processes timed for setup_s; the median is reported
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, print the time taken, exit")
    return p.parse_args(argv)


def _hold_blas_threads() -> None:
    """Cap BLAS threads at the processors this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= nproc):
            os.environ[var] = str(nproc)


def _import_package(root: str) -> float:
    """Import threshdist from the checkout's src/ and nothing else; returns
    the seconds the import took."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "threshdist", "__init__.py")):
        raise SystemExit(f"no threshdist sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import threshdist
    import threshdist.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if not os.path.abspath(threshdist.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"threshdist imported from {threshdist.__file__}, not {src}")
    return elapsed


def _setup_times(args) -> list[float]:
    """Package import plus input construction in fresh processes, each
    measured by the process itself (the benchmark's own imports excluded)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _run_op(op, traced, tracer):
    """Time one operation; returns (outcome, seconds, error message or None)."""
    from workloads import Outcome
    if traced:
        tracer.install()
    start = time.perf_counter()
    try:
        result = op.fn()
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
    if not isinstance(result, Outcome):
        result = Outcome(result, 0)
    return result, elapsed, error


class Tally:
    """Counts and timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.op_times: list[float] = []
        # per (traced, operation): its time in every round
        self.times = {False: {}, True: {}}
        self.walls = {False: [], True: []}
        self.problems: list[str] = []
        self.errors: list[str] = []


def _round(workload, index, traced, tracer, tally):
    wall = 0.0
    if traced:
        tracer.begin_round()
    for op in workload.operations(index):
        outcome, elapsed, error = _run_op(op, traced, tracer)
        wall += elapsed
        parts = outcome.parts or [elapsed]
        for i, t in enumerate(parts):
            tally.times[traced].setdefault((op.label, i), []).append(t)
        tally.attempted += len(parts)
        if error is not None:
            tally.failed += len(parts)
            tally.errors.append(error)
            continue
        if op.probe:
            if not op.judge(outcome.output):
                tally.failed += 1
                tally.errors.append(f"{op.label}: probe failed")
            continue
        tally.op_times.extend(parts)
        tally.items += outcome.items
        tally.problems += workload.check(index, op.label, outcome.output)
    if traced:
        tracer.end_round(wall)
    tally.walls[traced].append(wall)


def _fixed_work(times: dict) -> float:
    """One round's work: the sum over operations of each one's median time
    across rounds, which a slow spell of the host during part of a round
    moves less than it moves the round's total."""
    return sum(statistics.median(t) for t in times.values())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    _hold_blas_threads()
    import_s = _import_package(root)
    import workloads
    tmp = os.path.join(root, ".perfbench", "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.setup_only:
            print(repr(import_s + time.perf_counter() - start))
            return 0
        return _measure(args, workload, root)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, workload, root) -> int:
    setup = [] if args.trace else _setup_times(args)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    tally = Tally()
    start = time.perf_counter()
    last = 0.0
    index = 0
    # whole rounds only; a traced run alternates untraced and traced rounds
    while index < (2 if args.trace else 1) or \
            time.perf_counter() - start + last <= args.seconds:
        began = time.perf_counter()
        _round(workload, index, bool(args.trace and index % 2), tracer, tally)
        last = time.perf_counter() - began
        index += 1

    for line in tally.problems[:20] + tally.errors[:20]:
        print(f"{workload.name}: {line}", file=sys.stderr)
    print(f"{workload.name}: round walls untraced {tally.walls[False]} traced {tally.walls[True]}",
          file=sys.stderr)
    wall = _fixed_work(tally.times[False])
    if args.trace:
        metrics = _layer_metrics(tracer, tally, wall)
        trace_dir = os.path.join(root, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.save(os.path.join(trace_dir, f"{workload.name}-seed{args.seed}.npz"))
    else:
        rounds = len(tally.walls[False])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "op_p50_s": (statistics.median(tally.op_times), "s"),
            "items_per_s": (tally.items / rounds / wall, "1/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14s} {name:58s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _layer_metrics(tracer, tally, untraced_wall) -> dict:
    from tracing import PER_LAYER
    summary = tracer.summary()
    traced_wall = _fixed_work(tally.times[True])
    summary["trace_overhead_s"] = traced_wall - untraced_wall
    return {name: (float(summary.get(name, 0.0)), unit) for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
