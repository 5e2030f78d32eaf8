"""The mutant list in scripts/mutants.py stays in step with src/: every old text
still occurs exactly once, so no listed mutant silently stops applying."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutants_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once():
    mutants = load_mutants_script()
    assert mutants.MUTANTS
    assert mutants.target_errors() == []
