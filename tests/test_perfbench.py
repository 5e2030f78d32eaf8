"""The benchmark harness still runs against the package: a traced name that is renamed
or no longer called makes perfbench/run.py fail with a TraceError."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def assert_traced_run_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True


@pytest.mark.slow
def test_traced_eval_oracle_run_is_correct():
    assert_traced_run_correct("eval_oracle")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["separate_long", "train_desk"])
def test_traced_run_is_correct(workload):
    assert_traced_run_correct(workload)
