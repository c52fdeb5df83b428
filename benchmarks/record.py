"""Record the reference values that the workload checks compare against.

    python3 benchmarks/record.py

Runs every workload once at the reference seed and writes
``benchmarks/expected.json``: for each job that has a ``record`` (fixture
frames and ladder rungs: their per-degree ranks; CLI commands: exit code,
error name, report hash and label-free report fields) the recorded value,
under the workload's name.  Rerun it only when a job list changes, never
to make a failing check pass.  Before writing, every check runs against
the new values, so the checks that do not read them (classifier, product
formula, inverse-system oracle) must pass on the recording code.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from child import check_pass, run_pass  # noqa: E402


def main():
    seed = workloads.REFERENCE_SEED
    expected = {"reference_seed": seed}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for name in workloads.WORKLOADS:
            jobs = workloads.build(name, seed, workdir)
            results, errors, *_ = run_pass(jobs)
            if errors:
                sys.exit(f"{name}: jobs raised: {errors}")
            expected[name] = {job.key: job.record(results[job.key])
                              for job in jobs if job.record is not None}
            failures = check_pass(jobs, results, errors,
                                  workloads.Context(expected, seed, results))
            if failures:
                sys.exit(f"{name}: checks failed: {failures}")
    path = os.path.join(HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: " + ", ".join(
        f"{name} {len(expected[name])}" for name in workloads.WORKLOADS))


if __name__ == "__main__":
    main()
