#!/usr/bin/env python3
"""Mutation check: every listed one-line mutant of src/ must fail the fast test suite.

A mutant is (file, old text, new text, reason). For each one, src/, tests/,
configs/, scripts/ and pyproject.toml are copied to a temporary directory,
the old text (which must occur exactly once in the file) is replaced by the
new one in the copy, and
    pytest -q -m "not slow" -x -p no:cacheprovider
runs against the copy, less tests/test_mutants.py, which checks this list
against the unmutated files. A mutant that the suite still passes has survived.

A reason marks a mutant as equivalent: it says in one line why no test can
tell the mutant from the original. Such a mutant is still run and reported.

The unmutated copy runs first and must pass, so a kill always means the
mutation was caught. Exit status is nonzero when an old text is not found
exactly once, when the unmutated copy fails, or when a mutant with no reason
survives.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-m", "not slow", "-x", "-p", "no:cacheprovider",
          "--ignore", "tests/test_mutants.py"]
COPIED = ("src", "tests", "configs", "scripts")  # with pyproject.toml, what the fast suite reads
TIMEOUT_S = 900

# (file, old text, new text, reason if equivalent or None)
MUTANTS = [
    ("src/furcasep/training.py", "model.params.load_flat_values(best_values)", "pass", None),
    ("src/furcasep/training.py", "default_rng((cfg.seed, epoch))", "default_rng((cfg.seed, 1))", None),
    ("src/furcasep/training.py", '"init_seed": self.init_seed,', '"init_seed": 0,', None),
    ("src/furcasep/training.py", '"wall_time_s": r.wall_time_s,', '"wall_time_s": 0.0,', None),
    ("src/furcasep/training.py", "if dev_loss < report.best_dev_loss:", "if dev_loss <= report.best_dev_loss:", None),
    ("src/furcasep/cli.py", "in sorted(examples, key=lambda e: e.example_id):", "in examples:", None),
    # the overlap-sum's per-sample order, and the anchor frame of the overlap average
    ("src/furcasep/signal.py", "for j in reversed(range(pieces)):", "for j in range(pieces):", None),
    ("src/furcasep/signal.py", "for j in range(pieces):", "for j in reversed(range(pieces)):", None),
    # length grouping: positions taken from a length-sorted copy, and a chunk step that skips one
    ("src/furcasep/training.py", "for pos, example in enumerate(examples):",
     "for pos, example in enumerate(sorted(examples, key=lambda e: len(e.mixture))):", None),
    ("src/furcasep/training.py", "range(0, len(positions), chunk_size)", "range(0, len(positions), chunk_size + 1)",
     None),
    # the non-finite loss check before backward and Adam
    ("src/furcasep/training.py", "if not np.isfinite(loss.value):", "if False:", None),
    # lstm_sequence: BPTT's cell recompute starting every block from the first
    # block's entry cell, a full-length cell buffer in grad mode, the backward
    # direction's hidden history off by one step, a projection block without
    # its bias or with the backward direction's rows left in time order
    ("src/furcasep/layers.py", "cells[0] = c_entry[s0 // block]", "cells[0] = c_entry[0]", None),
    ("src/furcasep/layers.py", "cell = np.empty((block, 2, batch_size, hidden))",
     "cell = np.empty((span, 2, batch_size, hidden))", None),
    ("src/furcasep/layers.py", "out_value[:0:-1, :, hidden:]", "out_value[-2::-1, :, hidden:]", None),
    ("src/furcasep/layers.py", "p += b_v[d * h4 : (d + 1) * h4]", "p += b_v[d * h4 : (d + 1) * h4] if d == 0 else 0.0",
     None),
    ("src/furcasep/layers.py", "(1, steps - s0 - n, slice(None, None, -1))", "(1, steps - s0 - n, slice(None))", None),
    # gather_rows' gradient routed one row off; a forward-only pass keeping the
    # frame matrix, or the last hidden layer, alive through the output stage
    ("src/furcasep/autodiff.py", "a.grad[start::step] += g", "a.grad[start + 1::step] += g", None),
    ("src/furcasep/model.py", "h = ad.constant(np.stack(", "h = frames = ad.constant(np.stack(", None),
    ("src/furcasep/model.py", "del h  # the head has read", "pass  # the head has read", None),
    # non-finite samples written to a WAV, and NaN written into line-delimited JSON
    ("src/furcasep/signal.py", "if not np.isfinite(s).all():", "if False:", None),
    ("src/furcasep/corpus.py", "json.dumps(row, allow_nan=False)", "json.dumps(row)", None),
    # the parameter vector: a value copied instead of viewed, reset walking the
    # parameters backwards, the forget-gate bias initial 1.0 dropped
    ("src/furcasep/autodiff.py", "node.value = view", "node.value = view.copy()", None),
    ("src/furcasep/autodiff.py", "zip(self.nodes(), self._initial)", "reversed(list(zip(self.nodes(), self._initial)))",
     None),
    ("src/furcasep/layers.py", "np.repeat([0.0, 1.0, 0.0, 0.0], hidden_size)",
     "np.repeat([0.0, 0.0, 0.0, 0.0], hidden_size)", None),
    # flat Adam: a scratch vector aliased with the first moment, the no-gradient check removed
    ("src/furcasep/training.py", "self.scratch = np.empty(params.total_size)", "self.scratch = self.m", None),
    ("src/furcasep/training.py", "if node.grad is None:", "if False:", None),
    # the graph: a rule that keeps its input Node (the gate pre-activation)
    # alive, and one more node per dense layer
    ("src/furcasep/autodiff.py", 'return record(y, "sigmoid", (a,), backward)',
     'return record(y, "sigmoid", (a,), lambda g, e, a=a: backward(g, e))', None),
    ("src/furcasep/layers.py", "y = ad.affine(x, self.w, self.b)",
     "y = ad.mul_scalar(ad.affine(x, self.w, self.b), 1.0)", None),
]


def target_errors() -> list[str]:
    """One message per mutant whose old text does not occur exactly once, or equals its new text."""
    errors = []
    for i, (rel, old, new, _) in enumerate(MUTANTS):
        count = (ROOT / rel).read_text(encoding="utf-8").count(old)
        if count != 1:
            errors.append(f"mutant {i}: {rel}: old text found {count} times, expected once: {old!r}")
        if old == new:
            errors.append(f"mutant {i}: old and new text are the same")
    return errors


def suite_passes(mutant=None) -> bool:
    """Run the fast suite on a fresh copy of the repository, with mutant applied if given."""
    with tempfile.TemporaryDirectory(prefix="furcasep-mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        if mutant is not None:
            rel, old, new, _ = mutant
            path = tmp / rel
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        try:
            proc = subprocess.run(PYTEST, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return proc.returncode == 0


def main() -> int:
    errors = target_errors()
    for line in errors:
        print(line)
    if errors:
        return 1
    t0 = time.perf_counter()
    if not suite_passes():
        print("the unmutated copy fails the fast suite; no mutant can be judged")
        return 1
    print(f"unmutated copy passes ({time.perf_counter() - t0:.0f} s)")
    survivors = 0
    for i, mutant in enumerate(MUTANTS):
        rel, old, new, reason = mutant
        t0 = time.perf_counter()
        killed = not suite_passes(mutant)
        if killed:
            verdict = "killed" if reason is None else "killed, so not equivalent: drop its reason"
        elif reason is None:
            verdict = "SURVIVED"
            survivors += 1
        else:
            verdict = f"survived, equivalent: {reason}"
        print(f"mutant {i}: {rel}: {old!r} -> {new!r}: {verdict} ({time.perf_counter() - t0:.0f} s)")
    print(f"{survivors} unexplained survivor(s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
