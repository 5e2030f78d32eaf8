"""The fingerprint's recorded values hold at one BLAS thread as well.

The SHA256 line differs between thread counts (see tests/test_fingerprint.py),
but the 1e-12 checks must pass at any of them. The module runs in a fresh
interpreter because OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_passes_at_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_fingerprint.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
