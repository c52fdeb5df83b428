"""Fast self-test of the benchmark harness, on reduced job lists.

    python3 benchmarks/selftest.py

Checks that the tracer's wrappers are all removed after a traced pass,
that the layers' summed self time stays within the traced pass's wall
time, that a deliberately corrupted recorded value is counted as a failed
job and fails the run, and that ``BENCHMARK.json`` names exactly the
metrics the harness prints.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def quiet_measure(workload, trace, workdir, child_args):
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=0, trace=trace)
    with contextlib.redirect_stdout(io.StringIO()):
        return run.measure(args, workdir, ["--small", *child_args])


def check_wrappers_removed():
    import lefkit

    modules = {name: m for name, m in sys.modules.items()
               if name == "lefkit" or name.startswith("lefkit.")}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    t = tracer.Tracer()
    t.install()
    wrapped = lefkit.lefschetz.face_monomials is not before["lefkit.lefschetz"]["face_monomials"]
    t.uninstall()
    after = {name: dict(vars(m)) for name, m in modules.items()}
    same = all(after[n][k] is v for n, attrs in before.items() for k, v in attrs.items())
    return wrapped and same and t.bindings_restored()


def check_benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]]
    return (e2e == list(run.END_TO_END) and layers == tracer.per_layer_metrics()
            and names == list(workloads.WORKLOADS) == list(run.WORKLOADS))


def main():
    results = []

    def record(name, ok, detail=""):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    record("wrappers removed after uninstall (in process)", check_wrappers_removed())
    record("BENCHMARK.json matches the harness", check_benchmark_json())
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
    try:
        for workload in workloads.WORKLOADS:
            res = quiet_measure(workload, 1, workdir, [])
            m = {k: v["value"] for k, v in res["metrics"].items()}
            self_sum = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
            record(f"{workload}: traced small pass is correct", res["correct"] and not res["failed"],
                   f"{res['failed']} of {res['attempted']} failed")
            record(f"{workload}: sum of self_s <= traced wall_s", 0 < self_sum <= m["trace.wall_s"],
                   f"{self_sum:.4f} s <= {m['trace.wall_s']:.4f} s")
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        expected["wlp-ladder"]["OCT@2"][-1] += 1
        corrupted = os.path.join(workdir, "corrupted.json")
        with open(corrupted, "w", encoding="utf-8") as fh:
            json.dump(expected, fh)
        res = quiet_measure("wlp-ladder", 0, workdir, ["--expected", corrupted])
        failed_frac = res["failed"] / res["attempted"]
        record("corrupted recorded rank fails the run", failed_frac > 0 and not res["correct"],
               f"failed_frac {failed_frac:.4f}, correct {res['correct']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-test checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
