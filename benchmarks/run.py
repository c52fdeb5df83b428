"""lefkit benchmark: seeded verdict workloads, checked exactly.

    python3 benchmarks/run.py --workload wlp-ladder --seed 1 --seconds 42 --trace 0

Closed loop, one caller: each pass runs the workload's job list once, one
job at a time, in a fresh child interpreter (``child.py``), and passes
follow each other while at least half of the next one fits within
``--seconds``.  A pass's inputs are generated from ``--seed`` during its
set-up.  Set-up is also measured in extra set-up-only children, so that
every run has at least ``SETUP_SAMPLES`` samples of it.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (one pass),
``job_p50_s`` and ``job_p90_s`` (job latency within a pass), each the mean
over passes, and the medians ``setup_s`` (child start until lefkit is
imported and the inputs exist) and ``peak_rss_mib`` (the child's
``ru_maxrss``).  The four times are scaled to a reference machine speed:
each child also times a fixed calibration (``child.calibrate``) through
its pass, and a time is multiplied by ``REFERENCE_CALIBRATION_S`` over the
calibration around it (see ``child.run_pass``).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (medians over traced passes), the
self-time breakdown, and the tracing overhead (traced minus untraced
median ``wall_s``).  Jobs that raise, give a wrong verdict or a wrong
exit code are counted in ``failed``; ``failed / attempted`` is the
``failed_frac`` printed above the result.  The last line of output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracer  # stdlib only; lefkit is imported by the children

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("wlp-ladder", "sop-duality", "cli-batch")
END_TO_END = (("wall_s", "s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_SAMPLES = 9
# what child.calibrate() takes on the reference machine, the 2-core VM of
# README.md at its usual speed.  The end-to-end times are scaled by this
# over the calibration timed around them: the VM's speed drifts by up to
# a third from one minute to the next, which moved whole runs by more than
# the bounds, and the calibration, exact elimination like lefkit's, drifts
# with it.
REFERENCE_CALIBRATION_S = 0.08
RUN_LIMIT_S = 170  # a run that cannot finish by then is aborted without a result


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def p90(values):
    """Nearest-rank 90th percentile: a tenth of the values lie above it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


class Runner:
    def __init__(self, args, workdir, child_args=()):
        self.args = args
        self.workdir = workdir
        self.child_args = list(child_args)
        self.start = time.monotonic()
        self.count = 0

    def child(self, *extra):
        """Run one child to completion and return its JSON summary."""
        self.count += 1
        result = os.path.join(self.workdir, f"result{self.count}.json")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        # a fixed hash seed keeps set iteration order, and with it the work
        # done, the same in every run
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--workdir", self.workdir, "--result", result, *self.child_args, *extra,
               "--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass did not finish within the {RUN_LIMIT_S} s run limit")
        if proc.returncode != 0:
            raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def elapsed(self):
        return time.monotonic() - self.start


def run_passes(runner, seconds, traced):
    """Untraced passes, or untraced/traced pairs, while at least half of
    the next one fits before ``seconds``; then top up the set-up samples.

    A run thus ends at most half a pass after ``seconds``, and a pass as
    long as a third of ``seconds`` still gets three samples."""
    untraced, traced_passes, unit_times = [], [], []
    while True:
        t = runner.elapsed()
        untraced.append(runner.child("--trace", "0"))
        if traced:
            spans = os.path.join(runner.workdir, "spans.jsonl")
            traced_passes.append(runner.child("--trace", "1", "--spans", spans))
        unit_times.append(runner.elapsed() - t)
        if runner.elapsed() + statistics.median(unit_times) / 2 > seconds:
            break
    setups = untraced + traced_passes
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("--setup-only"))
    return untraced, traced_passes, setups


def scaled(seconds, calibration_s):
    """``seconds`` scaled to the reference speed by the calibration timed
    around them."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def scaled_latencies(p):
    return [scaled(t, c) for t, c in zip(p["latencies"], p["job_calibrations_s"])]


def end_to_end(passes, setups):
    # the pass times are means over passes: a run holds only three to eleven,
    # and the machine's speed flips between levels about 1.5x apart within
    # seconds, so the median of so few jumps with how many ran at which
    # speed, where the mean moves by a share of that
    return {
        "wall_s": statistics.fmean(scaled(p["wall_s"], p["calibration_s"]) for p in passes),
        "job_p50_s": statistics.fmean(statistics.median(scaled_latencies(p)) for p in passes),
        "job_p90_s": statistics.fmean(p90(scaled_latencies(p)) for p in passes),
        "setup_s": statistics.median(scaled(c["setup_s"], c["calibration_s"]) for c in setups),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def per_layer(traced_passes, untraced):
    names = [name for name, _, _ in tracer.per_layer_metrics()]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            continue
        out[name] = statistics.median(p["layers"][name] for p in traced_passes)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        p["wall_s"] for p in untraced)
    return out


def report_breakdown(args, traced_passes, layers, untraced_wall):
    print(f"traced {args.workload}: wall {layers['trace.wall_s']:.3f} s traced, "
          f"{untraced_wall:.3f} s untraced, overhead {layers['trace.overhead_s']:+.3f} s")
    print("self time by layer (median over traced passes):")
    for layer in tracer.LAYERS:
        print(f"  {layer:<12} {layers[layer + '.self_s']:9.3f} s")
    last = traced_passes[-1]["self_times"]
    print("top functions by self time (last traced pass):")
    for name, s in sorted(last.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {name:<36} {s:9.3f} s")
    print("per-layer metrics:")
    for name, unit, _ in tracer.per_layer_metrics():
        print(f"  {name:<44} {layers[name]:.6g} {unit}")


def measure(args, workdir, child_args=()):
    """Run the passes of one benchmark run, print the report and return
    the result object."""
    runner = Runner(args, workdir, child_args)
    untraced, traced_passes, setups = run_passes(runner, args.seconds, args.trace == 1)
    passes = untraced + traced_passes
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    leaked = sorted({m for p in passes for m in p["leaked_modules"]})
    restored = all(p["bindings_restored"] for p in traced_passes)
    jobs = len(untraced[0]["latencies"])
    for i, p in enumerate(passes):
        kind = "traced" if "layers" in p else "untraced"
        lat = scaled_latencies(p)
        print(f"pass {i} ({kind}): calibration {p['calibration_s']:.4f} s; unscaled: "
              f"wall {p['wall_s']:.3f} s, setup {p['setup_s']:.3f} s; scaled: "
              f"wall {scaled(p['wall_s'], p['calibration_s']):.3f} s, "
              f"p50 {statistics.median(lat):.5f} s, p90 {p90(lat):.5f} s; "
              f"failed {len(p['failures'])}")
        for key, why in list(p["failures"].items())[:10]:
            print(f"  FAILED {key}: {why}")
    print(f"{jobs} jobs per pass ({jobs - math.ceil(0.9 * jobs)} above job_p90_s), "
          f"{len(passes)} passes, {len(setups)} set-ups")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} jobs)")
    if leaked:
        print(f"child imported excluded modules: {leaked}")
    if not restored:
        print("tracer left wrappers installed")
    if args.trace:
        metrics = per_layer(traced_passes, untraced)
        units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
        report_breakdown(args, traced_passes, metrics,
                         statistics.median(p["wall_s"] for p in untraced))
        spans_out = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
        os.makedirs(os.path.dirname(spans_out), exist_ok=True)
        shutil.move(os.path.join(workdir, "spans.jsonl"), spans_out)
        print(f"spans of the last traced pass: {os.path.relpath(spans_out, ROOT)}")
    else:
        metrics = end_to_end(untraced, setups)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"{name} {metrics[name]:.6f} {unit}")
    return {
        "correct": failed == 0 and not leaked and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and
    # waited for and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "lefkit", "__init__.py")):
        print(f"lefkit sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        result = measure(args, workdir)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
