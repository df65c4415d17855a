"""The benchmark's own self-test, run as part of the default suite.

`bench/selftest.py` runs every workload at 41 cells x 16 moments, traced and
plain, and checks mass, l2 against the reference and traced-vs-plain CSVs. A
kernel change that breaks any of these fails here instead of only in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
