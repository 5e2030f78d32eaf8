"""The acceptance gate: one test per criterion, each printing a PASS line.

Criterion 7 trains a real model on the default desk corpus and dominates the
suite's runtime; everything here is deterministic given the pinned seeds.
Run with -s to watch the lines appear.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from furcasep import autodiff as ad
from furcasep import layers as ly
from furcasep.cli import evaluate_model, main
from furcasep.corpus import (
    MixtureExample,
    SpeakerProfile,
    default_desk_corpus,
    generate_corpus,
    load_corpus,
    synth_example,
)
from furcasep.metrics import pit_assign, sdr
from furcasep.model import ModelConfig, build
from furcasep.signal import FrameGeometry, Waveform, frame, mix_sum, overlap_add
from furcasep.spectral import fft, irm_separate, istft, stft
from furcasep.training import (
    TrainConfig,
    batch_loss,
    desk_train_config,
    initial_sdr_sweep,
    next_learning_rate,
    train,
)

DESK_EPOCHS = 100
DESK_SEED = 0


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk_corpus")
    manifests = default_desk_corpus(root)
    return {
        split: load_corpus(manifest.path) for split, manifest in manifests.items()
    }


@pytest.fixture(scope="module")
def trained(desk_corpus):
    """The end-to-end desk training run shared by the criterion-7 tests."""
    model = build(ModelConfig(seed=DESK_SEED))
    cfg = desk_train_config(max_epochs=DESK_EPOCHS, seed=DESK_SEED)
    t0 = time.perf_counter()
    report = train(model, desk_corpus["train"], desk_corpus["dev"], cfg)
    train_seconds = time.perf_counter() - t0
    records, aggregate = evaluate_model(model, desk_corpus["test"], with_irm_oracle=True)
    return {
        "model": model,
        "report": report,
        "records": records,
        "aggregate": aggregate,
        "train_seconds": train_seconds,
    }


class TestCriterion1GradientIntegrity:
    def test_every_layer_and_full_loss_at_desk_config(self):
        t0 = time.perf_counter()
        cfg = ModelConfig()
        rng = np.random.default_rng(0)
        worst = {}

        params = ad.ParamStore()
        gconv = ly.GConvLayer(params, "g", 1, cfg.gconv_channels, cfg.frame_len)
        gconv.reset(np.random.default_rng(1))
        frames = rng.normal(size=(12, cfg.frame_len))
        worst["gconv"] = ad.grad_check(
            lambda p: ad.mean(gconv.forward_windows(ad.constant(frames))),
            params, coords_per_param=6,
        )

        params = ad.ParamStore()
        norm = ly.LayerNorm(params, "ln", cfg.gconv_channels)
        x = rng.normal(size=(12, cfg.gconv_channels))
        worst["layer_norm"] = ad.grad_check(
            lambda p: ad.mean(ad.mul(norm.forward(ad.constant(x)), norm.forward(ad.constant(x)))),
            params, coords_per_param=6,
        )

        params = ad.ParamStore()
        lstm = ly.BiLstmLayer(params, "l", cfg.gconv_channels, cfg.bilstm_hidden)
        lstm.reset(np.random.default_rng(2))
        seq = rng.normal(size=(6, cfg.gconv_channels))
        worst["bilstm"] = ad.grad_check(
            lambda p: ad.mean(lstm.forward(ad.constant(seq))), params, coords_per_param=6,
        )

        params = ad.ParamStore()
        dense = ly.DenseLayer(params, "d", cfg.dnn_width, cfg.dnn_width, "relu")
        dense.reset(np.random.default_rng(3))
        xd = rng.normal(size=(8, cfg.dnn_width)) + 0.3
        worst["dense"] = ad.grad_check(
            lambda p: ad.mean(dense.forward(ad.constant(xd))), params, coords_per_param=6,
        )

        model = build(dataclasses.replace(cfg, seed=5))
        n = 2000  # a 0.25 s example at 8 kHz
        s1 = Waveform(0.4 * rng.normal(size=n), 8000)
        s2 = Waveform(0.4 * rng.normal(size=n), 8000)
        example = MixtureExample(mix_sum([s1, s2]), [s1, s2], 0.0, "gc", 0)
        worst["batch_loss"] = ad.grad_check(
            lambda p: batch_loss(model, [example]), model.params, coords_per_param=2,
        )

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
        for name, err in worst.items():
            assert err < 1e-4, f"{name} gradient error {err:.3e}"
        ok(1, f"max rel errors {max(worst.values()):.2e} over {sorted(worst)} in {elapsed:.1f}s")


class TestCriterion2PitCorrectness:
    def test_matches_independent_brute_force(self):
        def perms(rest):
            if not rest:
                yield ()
                return
            for i, head in enumerate(rest):
                for tail in perms(rest[:i] + rest[i + 1 :]):
                    yield (head,) + tail

        rng = np.random.default_rng(2024)
        total = 0
        for n_sources in (2, 3, 4):
            for _ in range(67):
                targets = [rng.normal(size=24) for _ in range(n_sources)]
                estimates = [rng.normal(size=24) for _ in range(n_sources)]
                got = pit_assign(targets, estimates)
                best_perm, best_mean = None, -np.inf
                for perm in perms(list(range(n_sources))):
                    mean = sum(sdr(targets[perm[j]], estimates[j]).sdr_db for j in range(n_sources)) / n_sources
                    if mean > best_mean:
                        best_perm, best_mean = perm, mean
                assert got.permutation == best_perm
                assert got.mean_sdr_db == best_mean
                total += 1
        assert total == 201
        ok(2, f"{total} random instances, S in (2, 3, 4), exact match")


class TestCriterion3SdrProperties:
    def test_formula_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.normal(size=96)
            s = rng.normal(size=96)
            alpha = float(rng.uniform(0.001, 1000.0))
            beta = float(rng.uniform(0.001, 1000.0))
            base = sdr(x, s).sdr_db
            assert abs(sdr(x, alpha * s).sdr_db - base) < 1e-9
            assert abs(sdr(beta * x, s).sdr_db - base) < 1e-9
        x = rng.normal(size=64)
        assert sdr(x, 0.37 * x).sdr_db == 100.0
        assert sdr([1.0, 0.0], [0.0, 1.0]).sdr_db == -100.0
        assert abs(sdr([1.0, 1.0], [1.0, 0.0]).sdr_db) < 1e-12
        ok(3, "scale invariance 1e-9, clamps, hand case 0 dB within 1e-12")


class TestCriterion4ReconstructionIdentities:
    def test_overlap_add_frame_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 600))
            frame_len = int(rng.integers(1, 100))
            hop = int(rng.integers(1, frame_len + 1))
            w = Waveform(rng.normal(size=n), 8000)
            back = overlap_add(frame(w, FrameGeometry(frame_len, hop)))
            assert np.array_equal(back.samples, w.samples)

    def test_istft_round_trip_interior(self):
        rng = np.random.default_rng(9)
        for n_fft, hop in ((256, 128), (128, 64)):
            x = rng.normal(size=8000)
            back = istft(stft(Waveform(x, 8000), n_fft, hop))
            interior = slice(n_fft, 8000 - n_fft)
            rel = np.linalg.norm(back.samples[interior] - x[interior]) / np.linalg.norm(x[interior])
            assert rel < 1e-6

    def test_fft_matches_naive_dft(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 4, 8, 16, 32, 64):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            k = np.arange(n)
            want = x @ np.exp(-2j * np.pi * np.outer(k, k) / n)
            ref = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(fft(x) - want)) / ref < 1e-9
        ok(4, "overlap-add exact, iSTFT 1e-6 interior, FFT vs naive DFT 1e-9")


class TestCriterion5CorpusIntegrity:
    def test_additivity_snr_and_determinism(self, tmp_path):
        from furcasep.corpus import make_speaker_pool

        pool = make_speaker_pool(12, seed=33)
        rng = np.random.default_rng(11)
        for i in range(12):
            snr = float(rng.uniform(0.0, 5.0))
            pair = [pool[int(rng.integers(0, 6))], pool[int(rng.integers(6, 12))]]
            ex = synth_example(pair, snr, 0.5, 8000, seed=int(rng.integers(2**60)), example_id=f"e{i}")
            total = mix_sum(ex.sources)
            assert np.array_equal(total.samples, ex.mixture.samples)  # exact pre-quantization
            measured = 10.0 * np.log10(ex.sources[0].power() / ex.sources[1].power())
            assert abs(measured - snr) < 1e-9
        m1 = generate_corpus(5, 2, 0.5, 0.0, 5.0, seed=77, out_dir=tmp_path / "a")
        m2 = generate_corpus(5, 2, 0.5, 0.0, 5.0, seed=77, out_dir=tmp_path / "b")
        assert (m1.root / "manifest.jsonl").read_text().replace(str(m1.root), "") == (
            m2.root / "manifest.jsonl"
        ).read_text().replace(str(m2.root), "")
        for r1, r2 in zip(m1.records, m2.records):
            assert (m1.root / r1.mixture_path).read_bytes() == (m2.root / r2.mixture_path).read_bytes()
            for p1, p2 in zip(r1.source_paths, r2.source_paths):
                assert (m1.root / p1).read_bytes() == (m2.root / p2).read_bytes()
        ok(5, "additivity exact, SNR within 1e-9 dB, bit-identical per seed")


class TestCriterion6OracleOrdering:
    def test_irm_oracle_on_separable_corpus(self):
        rng = np.random.default_rng(12)
        low = [SpeakerProfile(100.0 + 26 * i, (1.0, 0.6, 0.4), float(rng.uniform(2, 8)),
                              int(rng.integers(2**31))) for i in range(4)]
        high = [SpeakerProfile(320.0 + 24 * i, (0.0, 0.0, 0.0, 1.0, 0.7, 0.5), float(rng.uniform(2, 8)),
                               int(rng.integers(2**31))) for i in range(3)]
        sdris = []
        for i in range(10):
            ex = synth_example([low[i % 4], high[i % 3]], float(rng.uniform(0, 5)), 1.0, 8000,
                               seed=int(rng.integers(2**60)), example_id=f"sep{i}")
            estimates = irm_separate(ex.mixture, ex.sources)
            pit = pit_assign(ex.sources, estimates)
            sdris.append(np.mean([
                pit.per_source_sdr_db[j] - sdr(ex.sources[pit.permutation[j]], ex.mixture).sdr_db
                for j in range(2)
            ]))
        mean_sdri = float(np.mean(sdris))
        assert mean_sdri > 15.0
        ok(6, f"IRM-oracle mean SDRi {mean_sdri:.2f} dB > 15 dB on disjoint-band corpus")


class TestCriterion7EndToEndTraining:
    def test_single_example_overfit(self, desk_corpus):
        example = desk_corpus["train"][0]
        model = build(ModelConfig(seed=DESK_SEED))
        cfg = dataclasses.replace(desk_train_config(max_epochs=60, seed=DESK_SEED), batch_size=1)
        report = train(model, [example], [example], cfg)
        first = report.records[0].train_loss
        best = min(r.train_loss for r in report.records)
        improvement = first - best
        assert improvement >= 20.0, f"overfit improved only {improvement:.2f} dB"
        ok("7a", f"single-example overfit improved train loss by {improvement:.1f} dB")

    @pytest.mark.slow
    def test_held_out_sdri(self, trained):
        aggregate = trained["aggregate"]
        records = trained["records"]
        mean_sdri = aggregate["mean_sdri_db"]
        irm_sdri = aggregate["mean_irm_sdri_db"]
        positive = sum(1 for r in records if r["sdri_db"] > 0.0)
        frac = positive / len(records)
        assert mean_sdri >= 5.0, f"held-out mean SDRi {mean_sdri:.2f} dB < 5 dB"
        assert frac >= 0.9, f"only {positive}/{len(records)} examples improved"
        assert mean_sdri < irm_sdri, "model should stay below the IRM oracle"
        ok("7b", f"held-out mean SDRi {mean_sdri:.2f} dB (IRM {irm_sdri:.2f} dB), "
                 f"{positive}/{len(records)} positive, trained in {trained['train_seconds']:.0f}s")


class TestCriterion8TrainingMechanics:
    def test_lr_halving_fires_exactly_on_dev_increase(self):
        scripted = [3.0, 2.5, 2.6, 2.0, 2.0, 2.4, 1.0]
        lr = 0.001
        seen = []
        prev = None
        for dev in scripted:
            lr = next_learning_rate(lr, prev, dev, 0.5)
            seen.append(lr)
            prev = dev
        assert seen == [0.001, 0.001, 0.0005, 0.0005, 0.0005, 0.00025, 0.00025]

    def test_restart_bounded_and_reproducible(self, desk_corpus):
        dev = desk_corpus["dev"][:6]
        train_set = desk_corpus["train"][:6]
        cfg = TrainConfig(max_epochs=1, batch_size=3, seed=1,
                          restart_threshold_db=1000.0, restart_max_attempts=6)

        def run():
            model = build(ModelConfig(seed=100))
            report = train(model, train_set, dev, cfg)
            return report.restart_attempts, report.init_seed, report.init_dev_sdr_db

        r1, r2 = run(), run()
        assert r1 == r2
        assert r1[0] == 6  # bounded by restart_max_attempts
        assert 100 <= r1[1] < 106

    def test_ten_seed_sweep_logged_and_spread_visible(self, desk_corpus):
        dev = desk_corpus["dev"][:10]
        sweep = initial_sdr_sweep(ModelConfig(), dev, seeds=range(10))
        again = initial_sdr_sweep(ModelConfig(), dev, seeds=range(10))
        assert sweep == again
        assert len(sweep) == 10
        values = [row["mean_sdr_db"] for row in sweep]
        assert all(np.isfinite(v) for v in values)
        spread = max(values) - min(values)
        assert spread > 0.1, "seed sweep shows no spread at all"
        report_lines = [json.dumps(row) for row in sweep]
        assert all(json.loads(line)["seed"] == i for i, line in enumerate(report_lines))
        ok(8, f"LR rule exact, restart bounded+reproducible, 10-seed initial SDR spread "
              f"{min(values):.2f}..{max(values):.2f} dB")


class TestCriterion9IdentityBaseline:
    def test_identity_stub_scores_exactly_zero(self, tmp_path):
        generate_corpus(6, 2, 0.5, 0.0, 5.0, seed=55, out_dir=tmp_path / "c")
        report_path = tmp_path / "report.jsonl"
        rc = main(["evaluate", "--model", "identity",
                   "--data", str(tmp_path / "c" / "manifest.jsonl"),
                   "--report", str(report_path)])
        assert rc == 0
        lines = [json.loads(line) for line in report_path.read_text().splitlines()]
        aggregate = lines[-1]
        assert aggregate["kind"] == "aggregate"
        assert aggregate["mean_sdri_db"] == 0.0
        assert all(line["sdri_db"] == 0.0 for line in lines if line["kind"] == "example")
        ok(9, "identity-model evaluation returns mean SDRi exactly 0 dB")
