"""Benchmark of gausspml: three closed-loop workloads, checked and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Workloads: cli-cold, envelope-sweep, verify-suite (see README.md).

With --trace 0 the run is untraced and reports the end-to-end metrics.
With --trace 1 the first half of the time runs untraced rounds and the
second half replays the same rounds with spans around every public
function of the package; the run reports the per-layer metrics and
writes the spans to .perfbench_out/trace-<workload>.jsonl.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
TAIL_MIN_OPS = 40  # below this many operations a tail percentile is no tail


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up of the workload and print it (used internally)")
    return ap.parse_args(argv)


def _run_rounds(workload, rounds, seconds=math.inf, recorder=None):
    """Closed loop over whole rounds, stopping after the round that ends past `seconds`.

    Returns (ops, results, durations, elapsed, rounds executed).
    """
    ops, results, durations, done = [], [], [], []
    t_start = t1 = time.perf_counter()
    for batch in rounds:
        for op in batch:
            t0 = time.perf_counter()
            if recorder is not None:
                with recorder.span(spans.OP):
                    result = _execute(workload, op)
            else:
                result = _execute(workload, op)
            t1 = time.perf_counter()
            ops.append(op)
            results.append(result)
            durations.append(t1 - t0)
        done.append(batch)
        if t1 - t_start >= seconds:
            break
    return ops, results, durations, t1 - t_start, done


def _execute(workload, op):
    try:
        return workload.execute(op)
    except Exception as exc:  # counted as a failed operation and reported
        return exc


def _tail(durations):
    """Highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _check_all(workload, ops, results, checker, oracles):
    failed = 0
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            sys.stderr.write(f"operation {op!r} raised {type(result).__name__}: {result}\n")
            failed += 1
            continue
        if workload.check(checker, op, result, oracles):
            failed += 1
    return failed


def _child_setup(args):
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gausspml", "__init__.py")):
        sys.stderr.write(f"no gausspml sources under {os.path.join(ROOT, 'src')}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # the suite's thread pool is held to one thread; the BLAS pool is set
    # per workload (workloads.py), before numpy is first imported
    os.environ["PML_NUM_THREADS"] = "1"
    os.environ.update(workloads.WORKLOADS[args.workload].env)

    workload = workloads.WORKLOADS[args.workload](ROOT)
    cold = args.workload == "cli-cold"
    rng = random.Random(args.seed)
    os.makedirs(OUT, exist_ok=True)

    if args.setup_only:
        t0 = time.perf_counter()
        workload.setup()
        print(f"{time.perf_counter() - t0!r}")
        return 0

    recorder = None if cold or not args.trace else spans.Recorder()
    if cold:
        workload.prepare(rng)
        setup_s = workload.setup()
    else:
        t0 = time.perf_counter()
        workload.setup(recorder)
        setup_s = time.perf_counter() - t0

    import checks

    checker = checks.Checker()
    fresh = (workload.round(k, rng) for k in itertools.count())
    if not args.trace:
        ops, results, durations, elapsed, _ = _run_rounds(workload, fresh, args.seconds)
        usage = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    else:
        # untraced rounds for half the time, then the same rounds traced
        ops, results, durations, _, rounds = _run_rounds(workload, fresh, args.seconds / 2)
        if cold:
            workload.trace(os.path.join(OUT, "cli-child-spans.jsonl"))
        else:
            recorder.install()
        t_ops, t_results, t_durations, _, _ = _run_rounds(workload, rounds, recorder=recorder)
        records = workload.records if cold else recorder.records()
        ops, results = ops + t_ops, results + t_results
        trace_path = os.path.join(OUT, f"trace-{args.workload}.jsonl")
        spans.write(trace_path, records)
        layer, n_traced = spans.summarize(records, workload.construct_scope)
        layer.update(spans.import_split(ROOT, dict(os.environ, PYTHONPATH="src")))
        overhead = statistics.median(t_durations) - statistics.median(durations)
        layer["trace.overhead_ms"] = overhead * 1e3

    oracles = {name: workloads.oracle(name) for name in workload.names}
    failed = _check_all(workload, ops, results, checker, oracles)
    if not cold:
        workload.spot_check(checker, rng, oracles)
    for msg in checker.errors[:20]:
        sys.stderr.write(f"CHECK FAILED: {msg}\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  operations attempted {len(ops)}  failed {failed}  "
          f"checks {checker.count} ({len(checker.errors)} disagree)")
    if not args.trace:
        if not cold:
            samples = [setup_s] + [_child_setup(args) for _ in range(SETUP_REPEATS - 1)]
            setup_s = statistics.median(samples)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
            "ops_per_s": (len(durations) / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:12.4f} {unit}")
        if len(durations) >= TAIL_MIN_OPS:
            tail, pct = _tail(durations)
            print(f"  op_tail_ms     {tail * 1e3:12.4f} ms  (p{pct:.1f} of {len(durations)} ops)")
        else:
            print(f"  op_tail_ms     omitted: {len(durations)} ops < {TAIL_MIN_OPS}")
    else:
        units = dict(spans.LAYER_METRICS)
        metrics = {name: (layer[name], units[name]) for name, _ in spans.LAYER_METRICS}
        print(f"  traced operations {n_traced}; spans in {os.path.relpath(trace_path, ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
