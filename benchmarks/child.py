"""One pass of one workload in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass begins with
cold ``lru_cache``s, as a user's script or CLI call does.  The pass
imports lefkit from the checkout's ``src``, builds the seeded job list
(set-up), runs every job once in order (the timed pass), then checks every
result and writes a JSON summary to ``--result``.

    python3 benchmarks/child.py --workload wlp-ladder --seed 1 --trace 0 \
        --t0 <time.monotonic() at spawn> --workdir DIR --result OUT.json
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FORBIDDEN = ("numpy", "sympy", "networkx", "scipy")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true", help="reduced job list for the self-test")
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    p.add_argument("--spans", default=None, help="write the traced pass's spans here")
    return p.parse_args(argv)


# three seeded 24x24 integer matrices of full rank
_RNG = random.Random(0)
_CALIBRATION = [[[_RNG.randint(-3, 3) for _ in range(24)] for _ in range(24)] for _ in range(3)]


def _exact_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


CALIBRATE_EVERY_S = 1.0


def calibrate():
    """Seconds the machine takes now for a fixed piece of work of lefkit's
    kind: exact ranks over ``Fraction`` of three 24x24 integer matrices,
    about 0.08 s."""
    t = time.perf_counter()
    for matrix in _CALIBRATION:
        _exact_rank(matrix)
    return time.perf_counter() - t


def pass_calibration(samples):
    """The calibration over a pass, from its ``(time, seconds)`` samples:
    their harmonic mean over time, with the speed (1 / seconds) linear
    between samples, so that a time scaled by it is the time the pass
    would take at a steady speed."""
    work = sum((t1 - t0) * (1 / c0 + 1 / c1) / 2
               for (t0, c0), (t1, c1) in zip(samples, samples[1:]))
    return (samples[-1][0] - samples[0][0]) / work


def calibration_at(samples, t):
    """The calibration at time ``t``, with the speed linear between the
    samples around it."""
    i = bisect.bisect(samples, (t,))
    if i == 0:
        return samples[0][1]
    if i == len(samples):
        return samples[-1][1]
    (t0, c0), (t1, c1) = samples[i - 1], samples[i]
    w = (t - t0) / (t1 - t0)
    return 1 / ((1 - w) / c0 + w / c1)


def run_pass(jobs, tracer=None):
    """Run every job once, in order, and time the calibration before the
    first job, after the last, and between jobs once ``CALIBRATE_EVERY_S``
    have passed since it was last timed.  The machine's speed changes within
    seconds, so the calibration has to follow it through the pass.

    Returns ``(results, errors, latencies, wall_s, start, calibration)``:
    results and errors keyed by job, per-job seconds, the pass's seconds
    without the calibrations, the ``perf_counter`` reading at its start, and
    the calibration over the pass and at each job's middle.
    """
    results, errors, latencies, middles, samples = {}, {}, [], [], []

    def sample():
        t = time.perf_counter()
        c = calibrate()
        samples.append((t + c / 2, c))
        return c

    sample()
    calibrating = 0.0
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t = time.perf_counter()
        try:
            results[job.key] = job.run()
        except Exception as exc:  # an unexpected raise is a failed job
            errors[job.key] = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t)
        middles.append(t + latencies[-1] / 2)
        if i + 1 < len(jobs) and time.perf_counter() - samples[-1][0] >= CALIBRATE_EVERY_S:
            calibrating += sample()
    wall_s = time.perf_counter() - start - calibrating
    sample()
    calibration = {"pass": pass_calibration(samples),
                   "jobs": [calibration_at(samples, t) for t in middles]}
    return results, errors, latencies, wall_s, start, calibration


def check_pass(jobs, results, errors, ctx):
    """{job key: reason} for every job that raised or gave a wrong result."""
    failures = dict(errors)
    for job in jobs:
        if job.key in failures:
            continue
        try:
            why = job.check(results[job.key], ctx)
        except Exception as exc:  # a check that cannot read the result fails the job
            why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            failures[job.key] = why
    return failures


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import lefkit  # noqa: F401  (the import is part of set-up)
    import workloads
    from tracer import Tracer

    passdir = tempfile.mkdtemp(prefix="pass-", dir=args.workdir)
    try:
        jobs = workloads.build(args.workload, args.seed, passdir, small=args.small)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            summary = {"setup_s": setup_s,
                       "calibration_s": statistics.median(calibrate() for _ in range(3))}
        else:
            with open(args.expected, encoding="utf-8") as fh:
                expected = json.load(fh)
            tracer = Tracer() if args.trace else None
            if tracer is not None:
                tracer.install()
            try:
                results, errors, latencies, wall_s, origin, calibration = run_pass(jobs, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ctx = workloads.Context(expected, args.seed, results)
            failures = check_pass(jobs, results, errors, ctx)
            leaked = [m for m in FORBIDDEN if m in sys.modules]
            summary = {
                "setup_s": setup_s,
                "calibration_s": calibration["pass"],
                "job_calibrations_s": calibration["jobs"],
                "wall_s": wall_s,
                "peak_rss_mib": peak_rss_mib,
                "latencies": latencies,
                "failures": failures,
                "leaked_modules": leaked,
            }
            if tracer is not None:
                summary["layers"] = tracer.metrics(wall_s)
                summary["self_times"] = tracer.self_times()
                summary["bindings_restored"] = tracer.bindings_restored()
                if args.spans:
                    tracer.write_spans(args.spans, origin)
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
