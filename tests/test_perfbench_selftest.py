"""The benchmark's self-test traces featurize through the library's own module
bindings, so a refactor that stops calling decompose or level_signals from
radarmag.features breaks the benchmark; run it here so that shows up."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout.splitlines()
