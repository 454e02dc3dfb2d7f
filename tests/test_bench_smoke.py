"""The benchmark harness and the reduce sweep run against this source tree.

The harness looks up package functions by name, so a rename in ``src/``
shows up here as a failed run.  It writes its spans and work directories
under its own checkout, so it runs from a temporary copy of the harness
whose ``src`` links to this tree.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gemsurf as gs

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["enum", "certify", "check"])
def test_workload_with_traced_round(workload, tmp_path):
    shutil.copytree(ROOT / "gembench", tmp_path / "gembench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "gembench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / ".gembench" / f"spans-{workload}.csv").is_file()
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def _sweep(*args, timeout):
    return subprocess.run(
        [sys.executable, "scripts/sweep_reduce.py", *args], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=timeout)


def test_sweep_reduce_at_one_size():
    proc = _sweep("66", timeout=300)
    assert proc.returncode == 0, proc.stderr
    points = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(p["n"], p["bipartite"]) for p in points] == [(66, True), (66, False)]
    for p in points:
        assert p["form"] == str(gs.canonical_of(p["n"], p["bipartite"]))
        assert all(p[key] >= 0 for key in ("reduce_s", "verify_s", "write_s", "parse_s",
                                           "verify_file_s"))


@pytest.mark.parametrize("args", [("7",), ("0",), ("--family", "circ", "7")])
def test_sweep_reduce_refuses_a_size_without_graphs(args):
    """No contracted graph has an odd vertex count or fewer than 2 vertices."""
    proc = _sweep(*args, timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_sweep_reduce_at_two_draws_only_l():
    """The one contracted graph on 2 vertices is the bipartite L."""
    proc = _sweep("2", timeout=30)
    assert proc.returncode == 0, proc.stderr
    points = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(p["n"], p["bipartite"], p["form"]) for p in points] == [(2, True, "L")]
