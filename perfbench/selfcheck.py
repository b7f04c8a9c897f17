"""Fast self-check of the benchmark, at the smallest size of every workload.

    python3 perfbench/selfcheck.py

Asserts, for each workload, that an untraced run passes and prints every
end-to-end metric of ``BENCHMARK.json`` with its unit and a finite nonzero
value; that a traced run prints every per-layer metric with its unit and
no span is missing; and that a perturbed reference (every reference value
scaled by 1.01) makes operations fail.  Last, it asserts that the benchmark
exits with an error and prints no result in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.  Exits 0 when all hold.
"""

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads
import workloads


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_metrics(metrics, wanted, where):
    expect(set(metrics) == {m["name"] for m in wanted},
           f"{where}: metric names {sorted(set(metrics) ^ {m['name'] for m in wanted})} differ")
    for m in wanted:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']!r}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{where}: {m['name']} value {got['value']!r}")


def bare_directory_fails(bench_file):
    """The benchmark needs the program's sources next to it."""
    base = os.path.join(run.ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(dir=base)
    try:
        shutil.copy(bench_file, bare)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "box_ladder", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    expect(out.returncode != 0, "run.py succeeded without the program")
    expect("{" not in out.stdout, "run.py printed a result without the program")


def main():
    bench_file = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(bench_file) as fh:
        bench = json.load(fh)
    qm = run.import_program()
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "workload names differ from BENCHMARK.json")

    for name, cls in workloads.WORKLOADS.items():
        result, lines = run.measure(qm, name, 0, 0.1, 0, small=True, probes=1)
        expect(result["correct"] and result["failed"] == 0, f"{name}: {lines}")
        check_metrics(result["metrics"], bench["end_to_end"], name)
        expect(all(m["value"] > 0 for m in result["metrics"].values()),
               f"{name}: an end-to-end metric reads 0")

        result, lines = run.measure(qm, name, 0, 0.1, 1, small=True)
        expect(result["correct"], f"{name} traced: {lines}")
        check_metrics(result["metrics"], bench["per_layer"], f"{name} traced")

        cls.ref_scale = 1.01
        try:
            result, _ = run.measure(qm, name, 0, 0.1, 0, small=True, probes=1)
        finally:
            cls.ref_scale = 1.0
        expect(result["failed"] > 0 and not result["correct"],
               f"{name}: a perturbed reference did not fail the run")
        print(f"selfcheck {name}: ok", flush=True)

    bare_directory_fails(bench_file)
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
