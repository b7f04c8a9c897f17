"""quasimin benchmark: four solver workloads, end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload box_ladder --seed 0 --seconds 28 --trace 0

The program is imported from ``src/`` of that checkout; without it the
benchmark exits with code 2.  The BLAS pools are pinned to one thread
before numpy loads, because the order of the dot products in the
harmonic-initialization CG changes with the thread count, and with it the
descent's iteration count.

A run builds the workload's inputs from ``--seed`` and repeats the
workload's timed operations until the next repetition would end after
``--seconds``.  Every repetition is checked outside the timed section
against independent references and the ROADMAP contracts of every
``minimize`` call (see ``workloads.py``), and its deterministic outputs are
hashed into a digest that must repeat exactly.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:

- ``setup_s``: process start to the first solver call (imports, grids,
  boundary sampling, spec parsing), the median of seven fresh processes;
- ``wall_s``: one repetition of the timed operations;
- ``finest_s``: the workload's largest single solve;
- ``ref_err``: the error against the workload's independent reference;
- ``peak_rss_mb``: ``ru_maxrss`` of the benchmark process.

The failure share ``fail_frac`` is printed with them; in the JSON result
it is carried by ``failed`` over ``attempted``.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
``layers.py`` plus ``trace.overhead_s``, traced minus untraced ``wall_s``.

Lines before the last start with ``#`` and are for people: the machine
(nproc, versions, BLAS threads), each operation's median time, the
digest, and all metrics.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perfbench/selfcheck.py`` checks the benchmark itself in under a
minute; ``python3 perfbench/spread.py`` measures its run-to-run spread.
"""

import os

# must precede the first numpy import, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "QUASIMIN_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROCESSES = 7


def import_program():
    """Import quasimin from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quasimin", "__init__.py")):
        print(f"error: no quasimin package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    import quasimin
    import quasimin.cli  # noqa: F401  -- bound before any attribute is rebound

    if not os.path.abspath(quasimin.__file__).startswith(src + os.sep):
        print(f"error: imported quasimin from {quasimin.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return quasimin


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = getattr(handle, sym)()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


@contextlib.contextmanager
def workload(qm, name, seed, small):
    """Set up a workload in a scratch directory inside the checkout."""
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        yield workloads.WORKLOADS[name](qm, workloads.params(seed), workdir, small=small)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)


def run_rep(qm, wl, recorder, tracer=None):
    """One repetition: the timed ops, traced if a tracer is given, then the
    checks, outside the timed section and never traced."""
    times, results, failures, calls, spans = {}, {}, {}, {}, None
    if tracer:
        tracer.install()
    try:
        for name, fn in wl.ops():
            t0 = time.perf_counter()
            try:
                results[name] = fn()
            except Exception as exc:  # a crash is one failed operation
                failures[name] = [f"{type(exc).__name__}: {exc}"]
            times[name] = time.perf_counter() - t0
            calls[name] = recorder.take()
    finally:
        if tracer:
            spans = tracer.take()
            tracer.restore()
    for name, recorded in calls.items():
        for call in recorded:
            problems = workloads.minimize_contract(qm, call)
            if problems:
                failures.setdefault(name, []).extend(problems)
    ref_err, digest = float("nan"), None
    if len(results) == len(times):
        try:
            checked, ref_err = wl.check(results)
            digest = hashlib.sha256("\n".join(wl.digest(results)).encode()).hexdigest()
        except Exception as exc:  # malformed output fails every op it covers
            checked = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in times}
        for name, problems in checked.items():
            failures.setdefault(name, []).extend(problems)
    return {"times": times, "failures": failures, "ref_err": ref_err, "digest": digest,
            "spans": spans}


def repeat(qm, wl, seconds, recorder, tracer):
    """Repeat until the next repetition would end after ``seconds``.

    With a tracer, repetitions alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        on = tracer is not None and len(traced) < len(plain)
        (traced if on else plain).append(run_rep(qm, wl, recorder, tracer if on else None))
        now = time.perf_counter()
        if (tracer is None or traced) and now - start + (now - t0) > seconds:
            return plain, traced


def measure(qm, name, seed, seconds, trace, small=False, probes=SETUP_PROCESSES):
    """Run one workload; returns (result JSON object, lines for people)."""
    recorder = layers.Recorder()
    tracer = layers.Tracer() if trace else None
    try:
        missing = tracer.install() if tracer else []
        with workload(qm, name, seed, small) as wl:
            setup_spans = []
            if tracer:
                setup_spans = tracer.take()
                tracer.restore()
            plain, traced = repeat(qm, wl, seconds, recorder, tracer)
    finally:
        recorder.restore()

    every = plain + traced
    attempted = sum(len(r["times"]) for r in every)
    failed = sum(len(r["failures"]) for r in every)
    digests = {r["digest"] for r in every}
    lines = [f"# workload {name} seed {seed}: {len(plain)} untraced and {len(traced)} "
             f"traced repetitions",
             f"# digest {plain[0]['digest']} "
             f"{'steady' if len(digests) == 1 else 'UNSTEADY across repetitions'}"]
    for op in plain[0]["times"]:
        lines.append(f"# op {op}: median {statistics.median(r['times'][op] for r in plain):.4f} s")
    seen = {}
    for r in every:
        for op, problems in r["failures"].items():
            key = f"{op}: {'; '.join(problems)}"
            seen[key] = seen.get(key, 0) + 1
    lines += [f"# FAILED {key} (in {count} of {len(every)} repetitions)"
              for key, count in seen.items()]
    lines.append(f"# fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")

    wall = statistics.median(sum(r["times"].values()) for r in plain)
    if tracer:
        metrics = layers.layer_metrics(setup_spans, [r["spans"] for r in traced], missing)
        traced_wall = statistics.median(sum(r["times"].values()) for r in traced)
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        lines += [f"# missing span {span}" for span in missing]
        lines += [f"# {key} is computed from sizes, not measured traffic"
                  for key in layers.COMPUTED]
    else:
        metrics = {
            "setup_s": {"value": setup_seconds(name, seed, small, probes), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "finest_s": {"value": statistics.median(r["times"][wl.finest] for r in plain),
                         "unit": "s"},
            "ref_err": {"value": statistics.median(r["ref_err"] for r in plain)
                        if all(math.isfinite(r["ref_err"]) for r in plain) else None,
                        "unit": "1"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for key, m in metrics.items():
        lines.append(f"# {key} = {'missing' if m.get('missing') else m['value']} {m['unit']}")
    result = {"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def setup_seconds(name, seed, small, probes):
    """Median wall time from spawning a fresh process to its first solver call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--setup-probe"] + (["--small"] if small else [])
    times = []
    for _ in range(probes):
        t0 = time.time()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest sizes of every workload, for the self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    qm = import_program()
    if args.setup_probe:
        with workload(qm, args.workload, args.seed, args.small):
            print(repr(time.time()))
        return 0

    print("# machine: " + json.dumps(machine()))
    result, lines = measure(qm, args.workload, args.seed, args.seconds, args.trace,
                            small=args.small)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
