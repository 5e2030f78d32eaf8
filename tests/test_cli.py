import json
import re
from pathlib import Path

import numpy as np
import pytest

from furcasep import cli
from furcasep.cli import _pit_sdri, evaluate_model, main, parse_config_file, write_eval_report
from furcasep.corpus import generate_corpus, load_corpus
from furcasep.metrics import pit_assign, sdr
from furcasep.model import ModelConfig, build, load_checkpoint, save_checkpoint
from furcasep.signal import Waveform, read_wav
from furcasep.spectral import irm_separate
from furcasep.training import TrainConfig, desk_train_config

DESK_CFG = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"

TINY_CONFIG_TEXT = """
# tiny model for fast tests
frame_len = 16
hop = 8
gconv_layers = 2
gconv_channels = 4
bilstm_layers = 1
bilstm_hidden = 4
dnn_layers = 1
dnn_width = 8
seed = 0

batch_size = 4
max_epochs = 2
restart_threshold_db = -1000
"""


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_corpus(6, 2, 0.25, 0.0, 5.0, seed=11, out_dir=root / "train")
    generate_corpus(3, 2, 0.25, 0.0, 5.0, seed=12, out_dir=root / "dev")
    return root


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class TestMix:
    def test_generates_manifest_and_files(self, tmp_path, capsys):
        rc = main(["mix", "--out", str(tmp_path / "c"), "--num", "10", "--duration", "0.25", "--seed", "5"])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.jsonl")
        records = read_jsonl(tmp_path / "c" / "manifest.jsonl")
        assert records[0]["kind"] == "corpus_meta"
        assert sum(1 for r in records if r["kind"] == "example") == 10
        assert len(list((tmp_path / "c" / "wav").glob("*.wav"))) == 30

    def test_bad_snr_range_fails(self, tmp_path, capsys):
        rc = main(["mix", "--out", str(tmp_path / "c"), "--num", "1",
                   "--snr-min", "3", "--snr-max", "2"])
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_seed_reproducibility(self, tmp_path):
        for sub in ("a", "b"):
            main(["mix", "--out", str(tmp_path / sub), "--num", "3", "--duration", "0.25", "--seed", "9"])
        for name in sorted(p.name for p in (tmp_path / "a" / "wav").iterdir()):
            assert (tmp_path / "a" / "wav" / name).read_bytes() == (tmp_path / "b" / "wav" / name).read_bytes()


class TestConfigFile:
    def test_parses_both_configs(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(TINY_CONFIG_TEXT)
        model_cfg, train_cfg = parse_config_file(path)
        assert model_cfg.frame_len == 16 and model_cfg.gconv_channels == 4
        assert train_cfg.batch_size == 4 and train_cfg.max_epochs == 2
        assert train_cfg.restart_threshold_db == -1000.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("definitely_not_a_field = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(path)

    def test_retired_model_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("first_kernel_len = 80\n")
        with pytest.raises(ValueError, match="unknown config key 'first_kernel_len'"):
            parse_config_file(path)

    def test_bad_int_value_names_file_line_and_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("hop = 8\ndnn_width = 8.0\n")
        with pytest.raises(ValueError, match=r"cfg\.txt:2: dnn_width = '8\.0' is not a valid int"):
            parse_config_file(path)

    def test_bad_float_value_names_file_line_and_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("# learning rate\ninitial_lr = fast\n")
        with pytest.raises(ValueError, match=r"cfg\.txt:2: initial_lr = 'fast' is not a valid float"):
            parse_config_file(path)
        rc = main(["train", "--data", "x", "--dev", "y", "--config", str(path), "--out", str(tmp_path)])
        assert rc != 0
        assert f"{path}:2: initial_lr" in capsys.readouterr().err

    def test_committed_desk_config_is_the_desk_setup(self):
        assert parse_config_file(DESK_CFG) == (ModelConfig(), desk_train_config())

    def test_defaults_when_empty(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# nothing but comments\n")
        model_cfg, train_cfg = parse_config_file(path)
        assert model_cfg == ModelConfig()
        assert train_cfg == TrainConfig()


class TestSdrImprovement:
    """_pit_sdri: each output's SDR under PIT minus the mixture's SDR against its assigned target."""

    @staticmethod
    def baseline(sources, mixture):
        return [sdr(s, mixture).sdr_db for s in sources]

    def test_estimate_equals_mixture_is_zero(self):
        rng = np.random.default_rng(2)
        sources = [rng.normal(size=64) for _ in range(2)]
        mixture = sources[0] + sources[1]
        _, sdri = _pit_sdri(sources, [mixture, mixture], self.baseline(sources, mixture))
        assert sdri == [0.0, 0.0]

    def test_perfect_estimate(self):
        rng = np.random.default_rng(4)
        sources = [rng.normal(size=64) for _ in range(2)]
        mixture = sources[0] + 0.5 * sources[1]
        baseline = self.baseline(sources, mixture)
        pit, sdri = _pit_sdri(sources, [sources[1], sources[0]], baseline)
        assert pit.permutation == (1, 0)
        assert sdri == [100.0 - baseline[1], 100.0 - baseline[0]]

    def test_orthogonal_equal_power_mixture(self):
        # orthogonal equal-power sources: the mixture scores ~0 dB against either one
        n = 1024
        t = np.arange(n)
        s1 = np.sqrt(2.0) * np.sin(2 * np.pi * 8 * t / n)
        s2 = np.sqrt(2.0) * np.sin(2 * np.pi * 32 * t / n)
        mixture = s1 + s2
        baseline = self.baseline([s1, s2], mixture)
        assert baseline == pytest.approx([0.0, 0.0], abs=1e-9)
        estimates = [s1 + 0.01 * s2, s2 + 0.01 * s1]
        _, sdri = _pit_sdri([s1, s2], estimates, baseline)
        assert sdri == pytest.approx([sdr(s1, estimates[0]).sdr_db, sdr(s2, estimates[1]).sdr_db], abs=1e-9)


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, corpus_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY_CONFIG_TEXT)
        out = tmp_path / "run"
        rc = main([
            "train",
            "--data", str(corpus_dir / "train" / "manifest.jsonl"),
            "--dev", str(corpus_dir / "dev" / "manifest.jsonl"),
            "--config", str(cfg_path),
            "--out", str(out),
        ])
        assert rc == 0
        assert (out / "model.ckpt").exists()
        log = read_jsonl(out / "train_log.jsonl")
        assert log[0]["kind"] == "train_meta"
        assert sum(1 for line in log if line["kind"] == "epoch") == 2
        loaded = load_checkpoint(out / "model.ckpt")
        assert loaded.config.frame_len == 16

    def test_source_count_mismatch_fails_before_training(self, corpus_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(TINY_CONFIG_TEXT + "num_sources = 3\n")
        rc = main([
            "train",
            "--data", str(corpus_dir / "train" / "manifest.jsonl"),
            "--dev", str(corpus_dir / "dev" / "manifest.jsonl"),
            "--config", str(cfg_path),
            "--out", str(tmp_path / "run2"),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert "2 sources, model expects 3" in err

    def test_missing_manifest_fails(self, tmp_path, capsys):
        rc = main([
            "train",
            "--data", str(tmp_path / "niente.jsonl"),
            "--dev", str(tmp_path / "niente.jsonl"),
            "--out", str(tmp_path / "r"),
        ])
        assert rc != 0


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, corpus_dir):
    model = build(ModelConfig(
        frame_len=16, hop=8, gconv_layers=2, gconv_channels=4,
        bilstm_layers=1, bilstm_hidden=4, dnn_layers=1, dnn_width=8, seed=1,
    ))
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, path)
    return path


class TestSeparateCommand:
    def test_writes_one_file_per_source(self, corpus_dir, tiny_checkpoint, tmp_path, capsys):
        mixture = next((corpus_dir / "train" / "wav").glob("*.mix.wav"))
        out = tmp_path / "sep"
        rc = main(["separate", "--model", str(tiny_checkpoint), "--input", str(mixture), "--out", str(out)])
        assert rc == 0
        stems = sorted(p.name for p in out.iterdir())
        assert stems == [f"{mixture.stem}.s1.wav", f"{mixture.stem}.s2.wav"]
        original = read_wav(mixture)
        for name in stems:
            assert len(read_wav(out / name)) == len(original)

    def test_outputs_deterministic(self, corpus_dir, tiny_checkpoint, tmp_path):
        mixture = next((corpus_dir / "train" / "wav").glob("*.mix.wav"))
        for sub in ("x", "y"):
            main(["separate", "--model", str(tiny_checkpoint), "--input", str(mixture),
                  "--out", str(tmp_path / sub)])
        for name in sorted(p.name for p in (tmp_path / "x").iterdir()):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_corrupted_checkpoint_rejected(self, corpus_dir, tiny_checkpoint, tmp_path, capsys):
        blob = bytearray(tiny_checkpoint.read_bytes())
        blob[len(blob) // 3] ^= 0x55
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        mixture = next((corpus_dir / "train" / "wav").glob("*.mix.wav"))
        rc = main(["separate", "--model", str(bad), "--input", str(mixture), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "checksum" in capsys.readouterr().err


    def test_non_finite_output_fails_and_writes_no_wav(self, corpus_dir, tmp_path, capsys):
        model = build(ModelConfig(
            frame_len=16, hop=8, gconv_layers=2, gconv_channels=4,
            bilstm_layers=1, bilstm_hidden=4, dnn_layers=1, dnn_width=8, seed=1,
        ))
        model.params["head.b"].value[:] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(model, ckpt)
        mixture = next((corpus_dir / "train" / "wav").glob("*.mix.wav"))
        out = tmp_path / "sep"
        rc = main(["separate", "--model", str(ckpt), "--input", str(mixture), "--out", str(out)])
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err
        assert list(out.glob("*.wav")) == []


class RampModel:
    """Stands in for a loaded model: source 1 is a ramp from -peak to peak, source 2 half of it."""

    def __init__(self, peak):
        self.peak = peak

    def separate(self, mixture):
        ramp = np.linspace(-self.peak, self.peak, len(mixture))
        return [Waveform(ramp, mixture.sample_rate_hz), Waveform(0.5 * ramp, mixture.sample_rate_hz)]


class TestSeparateClampWarning:
    def run(self, monkeypatch, capsys, corpus_dir, out, peak):
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: RampModel(peak))
        mixture = next((corpus_dir / "train" / "wav").glob("*.mix.wav"))
        rc = main(["separate", "--model", "stub.ckpt", "--input", str(mixture), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == f"{out}\n"
        return mixture, captured.err

    def test_one_line_per_clamped_file(self, monkeypatch, capsys, corpus_dir, tmp_path):
        out = tmp_path / "sep"
        mixture, err = self.run(monkeypatch, capsys, corpus_dir, out, peak=1.5)
        ramp = RampModel(1.5).separate(read_wav(mixture))[0].samples
        clamped = int(np.count_nonzero(np.abs(ramp) > 1.0))
        assert clamped > 0
        assert err == f"warning: {out / (mixture.stem + '.s1.wav')}: {clamped} samples clamped to [-1, 1]\n"

    def test_in_range_output_prints_nothing(self, monkeypatch, capsys, corpus_dir, tmp_path):
        _, err = self.run(monkeypatch, capsys, corpus_dir, tmp_path / "sep", peak=1.0)
        assert err == ""


class TestEvaluateCommand:
    def test_identity_stub_gives_exactly_zero_sdri(self, corpus_dir, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        rc = main(["evaluate", "--model", "identity",
                   "--data", str(corpus_dir / "dev" / "manifest.jsonl"),
                   "--report", str(report)])
        assert rc == 0
        lines = read_jsonl(report)
        aggregate = lines[-1]
        assert aggregate["kind"] == "aggregate"
        assert aggregate["mean_sdri_db"] == 0.0
        for line in lines[1:-1]:
            assert line["sdri_db"] == 0.0
            assert line["permutation"] == [0, 1]

    def test_oracle_section_present_iff_flag(self, corpus_dir, tmp_path):
        with_path = tmp_path / "with.jsonl"
        without_path = tmp_path / "without.jsonl"
        main(["evaluate", "--model", "identity", "--data", str(corpus_dir / "dev" / "manifest.jsonl"),
              "--report", str(without_path)])
        main(["evaluate", "--model", "identity", "--data", str(corpus_dir / "dev" / "manifest.jsonl"),
              "--report", str(with_path), "--with-irm-oracle"])
        without = read_jsonl(without_path)
        with_oracle = read_jsonl(with_path)
        assert "irm_sdri_db" not in without[1]
        assert "mean_irm_sdri_db" not in without[-1]
        assert "irm_sdri_db" in with_oracle[1]
        assert with_oracle[-1]["mean_irm_sdri_db"] > 0.0

    def test_aggregate_matches_records(self, corpus_dir, tiny_checkpoint, tmp_path):
        report = tmp_path / "report.jsonl"
        rc = main(["evaluate", "--model", str(tiny_checkpoint),
                   "--data", str(corpus_dir / "dev" / "manifest.jsonl"),
                   "--report", str(report)])
        assert rc == 0
        lines = read_jsonl(report)
        sdris = [line["sdri_db"] for line in lines if line["kind"] == "example"]
        aggregate = lines[-1]
        assert aggregate["mean_sdri_db"] == pytest.approx(float(np.mean(sdris)), abs=1e-12)
        assert aggregate["median_sdri_db"] == pytest.approx(float(np.median(sdris)), abs=1e-12)
        assert aggregate["num_examples"] == len(sdris)
        header = lines[0]
        assert header["kind"] == "eval_config"
        assert header["model_config"]["frame_len"] == 16

    def test_sdri_subtracts_each_targets_mixture_sdr(self, corpus_dir, tiny_checkpoint):
        model = load_checkpoint(tiny_checkpoint)
        examples = load_corpus(corpus_dir / "dev" / "manifest.jsonl")
        records, _ = evaluate_model(model, examples[::-1], with_irm_oracle=True)  # records come sorted by id
        for example, record in zip(sorted(examples, key=lambda e: e.example_id), records):
            assert record["example_id"] == example.example_id
            def sdri(pit):
                return [
                    pit.per_source_sdr_db[j] - sdr(example.sources[k], example.mixture).sdr_db
                    for j, k in enumerate(pit.permutation)
                ]

            model_sdri = sdri(pit_assign(example.sources, model.separate(example.mixture)))
            oracle_sdri = sdri(pit_assign(example.sources, irm_separate(example.mixture, example.sources)))
            assert record["per_source_sdri_db"] == model_sdri
            assert record["irm_sdri_db"] == float(np.mean(oracle_sdri))

    def test_non_finite_value_raises_naming_the_report(self, tmp_path):
        report = tmp_path / "report.jsonl"
        record = {"kind": "example", "example_id": "x", "sdri_db": float("nan")}
        with pytest.raises(ValueError, match=f"{re.escape(str(report))}: Out of range float"):
            write_eval_report(report, {"model": "m"}, [record], {"kind": "aggregate"})
        assert not report.exists()

    def test_reports_deterministic(self, corpus_dir, tiny_checkpoint, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            main(["evaluate", "--model", str(tiny_checkpoint),
                  "--data", str(corpus_dir / "dev" / "manifest.jsonl"), "--report", str(path)])
        assert read_jsonl(a)[1:] == read_jsonl(b)[1:]
