"""Benchmark for edgeminer: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 36 --trace 0

A closed loop runs one operation at a time, in this process, with no extra
threads.  Each run repeats whole rounds (one pass through the workload's
operation list) until ``--seconds`` have passed.  The first round checks
every output against checks.py; later rounds must reproduce the first
round's output bytes.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are end to end; with ``--trace 1`` they are per layer, and the
end-to-end figures of the traced run go to the line before it.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is a single-threaded closed loop
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("montecarlo", "stage1-sweeps", "disc-scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it (used by the benchmark itself)")
    return parser.parse_args(argv)


def set_up(workload, seed, workdir):
    """Import the package, build the operation list and warm every path up."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "edgeminer")):
        raise SystemExit(f"edgeminer sources not found under {src}")
    sys.path.insert(0, src)
    import workloads  # imports edgeminer and numpy

    ops = workloads.build(workload, seed, workdir)
    workloads.warm_up(workdir)
    return ops


def probe_setup(args):
    """Median set-up time over fresh interpreters, each doing this run's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(ops, seconds, tracer):
    """Whole rounds until the time is up; returns latencies, failures and errors."""
    latencies, kinds, failed, errors = [], [], 0, []
    digests, faulted = {}, {}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_kind = op.kind
            start = time.perf_counter()
            raw = op.run()
            latencies.append(time.perf_counter() - start)
            kinds.append(op.kind)
            out = op.finish(raw)
            digest = op.digest(out)
            if rounds == 0:
                digests[index] = digest
                faulted[index] = op.fault is not None and bool(op.fault(out))
                if not faulted[index]:
                    try:
                        op.check(out)
                    except (AssertionError, ValueError, KeyError) as exc:
                        errors.append(f"{op.kind} (op {index}): {exc}")
            elif digest != digests[index]:
                errors.append(f"{op.kind} (op {index}): round {rounds + 1} output differs "
                              "from round 1")
            failed += faulted[index]
        rounds += 1
        if time.perf_counter() >= deadline:
            return latencies, kinds, failed, errors, rounds


def end_to_end(latencies, setup_s):
    busy = sum(latencies)
    ms = sorted(1e3 * t for t in latencies)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_ops_s": {"value": len(latencies) / busy, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def kind_medians(latencies, kinds):
    by_kind = {}
    for seconds, kind in zip(latencies, kinds):
        by_kind.setdefault(kind, []).append(1e3 * seconds)
    return {kind: round(statistics.median(v), 3) for kind, v in sorted(by_kind.items())}


def main(argv=None):
    args = parse_args(argv)
    work_root = os.path.join(HERE, "work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        start = time.perf_counter()
        ops = set_up(args.workload, args.seed, workdir)
        own_setup = time.perf_counter() - start
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        setup_s = probe_setup(args)

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        latencies, kinds, failed, errors, rounds = run_rounds(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(work_root)

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    e2e = end_to_end(latencies, setup_s)
    summary = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
               "ops_per_round": len(ops), "own_setup_s": own_setup,
               "kind_p50_ms": kind_medians(latencies, kinds)}
    if tracer is not None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        report_path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({**summary, "end_to_end": e2e, **tracer.report(rounds)}, fh, indent=1)
        print(json.dumps({**summary, "traced_end_to_end": e2e}))
        metrics = tracer.metrics(rounds)
    else:
        print(json.dumps(summary))
        metrics = e2e
    print(json.dumps({"correct": not errors, "attempted": len(latencies), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
