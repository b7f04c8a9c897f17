"""Run-to-run spread of the end-to-end metrics, and digest agreement.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S]
                                [--out FILE] [--compare FILE]

Runs ``run.py`` once per seed and workload, seed by seed, and prints for
each workload and end-to-end metric the median over seeds and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
``--out`` saves every run's metrics and digest; ``--compare`` reads such a
file and reports, per workload and metric, how far the new median moved
against the bound, and any seed whose digest changed.  Exits 1 when a run
fails, a spread other than ``setup_s`` exceeds its bound, a median worsens
by more than its bound, or a digest differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"ok": False, "error": out.stderr.strip()[-400:]}
    result = json.loads(lines[-1])
    digest = next((ln.split()[2] for ln in lines if ln.startswith("# digest ")), None)
    return {"ok": result["correct"], "digest": digest,
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)

    runs = {name: {} for name in names}
    for seed in seeds:
        for name in names:
            runs[name][str(seed)] = run_once(name, seed, seconds)
            print(f"{name} seed {seed}: {json.dumps(runs[name][str(seed)])}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)

    before = None
    if args.compare:
        with open(args.compare) as fh:
            before = json.load(fh)
    ok = True
    for name in names:
        good = [r for r in runs[name].values() if r["ok"]]
        if len(good) != len(seeds):
            ok = False
            print(f"{name}: {len(seeds) - len(good)} failed runs")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values = [r["metrics"][key] for r in good]
            if len(values) < 2:
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            row = f"{name:14s} {key:12s} median {med:.6g} spread {spread:.4f} bound {bound}"
            if key != "setup_s" and spread > bound:
                ok = False
                row += "  SPREAD OVER BOUND"
            elif spread > bound / 3:
                row += "  (over a third of the bound)"
            if before and name in before:
                old = [r["metrics"][key] for r in before[name].values() if r["ok"]]
                if old:
                    move = (med - statistics.median(old)) / statistics.median(old)
                    worse = move if metric["better"] == "lower" else -move
                    row += f"  vs before {move:+.4f}"
                    if worse > bound:
                        ok = False
                        row += " WORSE THAN BOUND"
            print(row)
        if before and name in before:
            changed = [s for s, r in runs[name].items()
                       if s in before[name] and r.get("digest") != before[name][s].get("digest")]
            if changed:
                ok = False
                print(f"{name:14s} digest differs for seeds {', '.join(changed)}")
            else:
                print(f"{name:14s} digests identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
