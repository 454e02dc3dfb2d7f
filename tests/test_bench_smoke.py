"""The benchmark harness runs against this source tree.

The harness looks up package functions by name, so a rename in ``src/``
shows up here as a failed run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_enum_workload_with_traced_round():
    proc = subprocess.run(
        [sys.executable, "gembench/run.py", "--workload", "enum", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
