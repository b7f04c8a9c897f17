"""Smoke runs of the experiment scripts at their smallest sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("oracle_convergence.py", ["--levels", "9", "17"],
         "n |min - oracle|_inf ratio iters secs"),
        ("geodesic_pair.py", ["--nodes", "51"], "nodes: 51"),
        ("halfspace_stabilization.py", ["--radii", "2", "4", "--spacing", "0.5"],
         "R sup|u| E_window E_full E(phi) win diff"),
        ("solve_cost.py", ["--square", "65", "--disk", "65", "--picard", "--repeat", "1"],
         "domain n iters evals solve_s poisson_s ratio"),
        ("solve_cost.py", ["--square", "--disk", "--picard", "33", "--repeat", "1"],
         "domain n iters evals solve_s poisson_s ratio"),
    ],
    ids=["oracle_convergence", "geodesic_pair", "halfspace_stabilization", "solve_cost",
         "solve_cost_picard"],
)
def test_script_runs_and_prints_its_header(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [" ".join(line.split()) for line in proc.stdout.splitlines()]
    assert header in lines
