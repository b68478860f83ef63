"""Self-tests of the benchmark, run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs traced twice with the same seed; the deterministic counts
(evaluations, evaluations to the bound, converged restarts, cloud points,
hull vertices and the other per-unit counts) must repeat exactly and every
correctness gate must pass.  The runner must refuse, with a nonzero exit and
no result line, to run where the library sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("minimize_binary", "minimize_quaternary", "cloud_hull", "certify")

#: per-layer metrics that are counts (or ratios of counts) of one unit
DETERMINISTIC = (
    "engine.nelder_mead.evals",
    "engine.nelder_mead.converged_frac",
    "engine.evals_to_bound",
    "engine.entropy_vector.calls",
    "engine.objective_setup.calls",
    "engine.collector.points",
    "engine.collector.kept_frac",
    "engine.collector.outside_frac",
    "engine.best_score",
    "geometry.convex_hull_3d.input_points",
    "geometry.convex_hull_3d.vertices",
    "geometry.hull_volume",
    "frame.cross_section_point.degenerate_frac",
    "cli.main.failed",
)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def traced(workload):
    out = run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = traced(workload), traced(workload)
    for name in DETERMINISTIC:
        assert first[name] == second[name], name


def test_counts_reach_the_layers():
    binary = traced("minimize_binary")
    assert binary["engine.nelder_mead.evals"] > 0
    assert 0 < binary["engine.evals_to_bound"] <= binary["engine.nelder_mead.evals"]
    assert binary["engine.pool.efficiency"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_reference_pool_leaves_no_process():
    # a spawn or forkserver pool would start multiprocessing's resource
    # tracker, which lives on after the run that started it
    code = ("import reference\n"
            "from multiprocessing import active_children, resource_tracker\n"
            "ref = reference.Reference(2)\n"
            "ref.measure()\n"
            "ref.close()\n"
            "print(resource_tracker._resource_tracker._pid, len(active_children()))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["None", "0"]
