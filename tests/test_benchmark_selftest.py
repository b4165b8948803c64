"""The benchmark's toy-size self-test passes against the package sources.

perfbench wraps pipeline functions by their module attribute names and reads
result fields, so a change under src/ can break the traced run without any
other test failing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
