"""Command-line scripts under scripts/ that write files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSeedSweep:
    def stub(self, monkeypatch, sweep, scores):
        monkeypatch.setattr(sweep, "load_corpus", lambda path: [])
        monkeypatch.setattr(sweep, "initial_sdr_sweep",
                            lambda config, dev_set, seeds: [{"seed": s, "mean_sdr_db": scores[s]} for s in seeds])

    def test_out_is_strict_json_lines(self, tmp_path, monkeypatch):
        sweep = load_script("seed_sweep")
        self.stub(monkeypatch, sweep, [-37.5, -41.25])
        out = tmp_path / "sweep.jsonl"
        assert sweep.main(["--dev", "dev.jsonl", "--seeds", "2", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [{"seed": 0, "mean_sdr_db": -37.5},
                                                        {"seed": 1, "mean_sdr_db": -41.25}]

    def test_nan_initial_sdr_raises_naming_the_file(self, tmp_path, monkeypatch):
        sweep = load_script("seed_sweep")
        self.stub(monkeypatch, sweep, [-37.5, float("nan")])
        out = tmp_path / "sweep.jsonl"
        with pytest.raises(ValueError, match="sweep.jsonl"):
            sweep.main(["--dev", "dev.jsonl", "--seeds", "2", "--out", str(out)])
        assert not out.exists()
