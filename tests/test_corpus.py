import numpy as np
import pytest

from furcasep.corpus import (
    CorpusError,
    Manifest,
    SpeakerProfile,
    generate_corpus,
    load_corpus,
    make_speaker_pool,
    synth_example,
    synth_speaker,
)
from furcasep.metrics import pit_assign, sdr
from furcasep.signal import mix_sum, read_wav, write_wav
from furcasep.spectral import fft, irm_separate


def tone_profile(f0=200.0, seed=0, weights=(1.0,), am=0.0):
    return SpeakerProfile(fundamental_hz=f0, harmonic_weights=weights, am_rate_hz=am, seed=seed)


class TestSynthSpeaker:
    def test_single_harmonic_is_a_pure_tone(self):
        w = synth_speaker(tone_profile(f0=200.0), 1.0, 8000)
        n = 8192
        padded = np.zeros(n)
        padded[: len(w)] = w.samples
        spectrum = np.abs(fft(padded)[: n // 2])
        peak_hz = np.argmax(spectrum) * 8000 / n
        assert abs(peak_hz - 200.0) <= 0.035 * 200.0  # within the pitch-drift band

    def test_deterministic_per_seed(self):
        a = synth_speaker(tone_profile(seed=7), 0.5, 8000)
        b = synth_speaker(tone_profile(seed=7), 0.5, 8000)
        assert np.array_equal(a.samples, b.samples)
        c = synth_speaker(tone_profile(seed=8), 0.5, 8000)
        assert not np.array_equal(a.samples, c.samples)

    def test_peak_normalized(self):
        w = synth_speaker(tone_profile(weights=(1.0, 0.5, 0.2), am=4.0), 0.7, 8000)
        assert np.max(np.abs(w.samples)) == pytest.approx(0.7, abs=1e-9)

    def test_harmonics_above_nyquist_dropped(self):
        # 8 harmonics of 390 Hz: the top ones exceed 4 kHz and must vanish silently
        w = synth_speaker(tone_profile(f0=390.0, weights=(1.0,) * 8), 0.5, 8000)
        assert np.max(np.abs(w.samples)) == pytest.approx(0.7, abs=1e-9)

    def test_all_harmonics_dropped_is_an_error(self):
        profile = SpeakerProfile(300.0, (0.0, 0.0, 0.0), 0.0, 0)
        with pytest.raises(ValueError, match="Nyquist"):
            synth_speaker(profile, 0.5, 800)

    def test_too_short_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            synth_speaker(tone_profile(), 0.05, 8000)

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="fundamental"):
            SpeakerProfile(30.0, (1.0,), 0.0, 0)
        with pytest.raises(ValueError, match="harmonic_weights"):
            SpeakerProfile(200.0, (), 0.0, 0)


class TestSpeakerPool:
    def test_minimum_separation(self):
        pool = make_speaker_pool(12, seed=5)
        f0s = sorted(p.fundamental_hz for p in pool)
        assert all(b - a >= 20.0 for a, b in zip(f0s, f0s[1:]))
        assert all(50.0 < f < 400.0 for f in f0s)

    def test_phase_interleaves_pools(self):
        base = make_speaker_pool(12, seed=5, phase=0.0)
        shifted = make_speaker_pool(12, seed=6, phase=0.5)
        f0s = {round(p.fundamental_hz, 6) for p in base}
        assert f0s.isdisjoint(round(p.fundamental_hz, 6) for p in shifted)

    def test_too_many_speakers_rejected(self):
        with pytest.raises(ValueError, match="separation"):
            make_speaker_pool(20, seed=0)


class TestSynthExample:
    def test_additivity_is_exact(self):
        pool = make_speaker_pool(12, seed=1)
        ex = synth_example(pool[:2], 2.5, 0.5, 8000, seed=3, example_id="e")
        total = mix_sum(ex.sources)
        assert np.array_equal(total.samples, ex.mixture.samples)

    def test_snr_achieved_exactly(self):
        pool = make_speaker_pool(12, seed=2)
        for snr in (0.0, 2.5, 5.0):
            ex = synth_example([pool[0], pool[5]], snr, 0.5, 8000, seed=4, example_id="e")
            measured = 10 * np.log10(ex.sources[0].power() / ex.sources[1].power())
            assert measured == pytest.approx(snr, abs=1e-9)

    def test_headroom_no_sample_exceeds_limit(self):
        pool = make_speaker_pool(12, seed=3)
        ex = synth_example(pool[:2], 0.0, 0.5, 8000, seed=5, example_id="e")
        for w in [ex.mixture, *ex.sources]:
            assert np.max(np.abs(w.samples)) <= 0.9 + 1e-12


class TestGenerateCorpus:
    def test_counts_and_files(self, tmp_path):
        manifest = generate_corpus(10, 2, 0.5, 0.0, 5.0, seed=1, out_dir=tmp_path)
        assert len(manifest.records) == 10
        wavs = list((tmp_path / "wav").glob("*.wav"))
        assert len(wavs) == 30  # mixture + 2 sources per example
        assert manifest.path.exists()

    def test_snrs_within_range(self, tmp_path):
        manifest = generate_corpus(12, 2, 0.5, 1.0, 4.0, seed=2, out_dir=tmp_path)
        for record in manifest.records:
            assert 1.0 <= record.snr_db <= 4.0

    def test_snr_bounds_validated(self, tmp_path):
        with pytest.raises(ValueError, match="snr_min"):
            generate_corpus(1, 2, 0.5, 3.0, 2.0, seed=0, out_dir=tmp_path)

    def test_seed_determinism_bit_identical(self, tmp_path):
        m1 = generate_corpus(4, 2, 0.5, 0.0, 5.0, seed=7, out_dir=tmp_path / "a")
        m2 = generate_corpus(4, 2, 0.5, 0.0, 5.0, seed=7, out_dir=tmp_path / "b")
        assert [r.snr_db for r in m1.records] == [r.snr_db for r in m2.records]
        for r1, r2 in zip(m1.records, m2.records):
            b1 = (m1.root / r1.mixture_path).read_bytes()
            b2 = (m2.root / r2.mixture_path).read_bytes()
            assert b1 == b2

    def test_three_sources(self, tmp_path):
        manifest = generate_corpus(3, 3, 0.5, 0.0, 5.0, seed=3, out_dir=tmp_path)
        examples = load_corpus(manifest.path)
        assert all(len(e.sources) == 3 for e in examples)


class TestLoadCorpus:
    def test_round_trip(self, tmp_path):
        manifest = generate_corpus(5, 2, 0.5, 0.0, 5.0, seed=4, out_dir=tmp_path)
        examples = load_corpus(manifest.path)
        assert [e.example_id for e in examples] == [r.example_id for r in manifest.records]
        for e in examples:
            total = mix_sum(e.sources)
            assert np.max(np.abs(total.samples - e.mixture.samples)) <= 2.0 / 32768 + 1e-12

    def test_missing_source_file_names_example(self, tmp_path):
        manifest = generate_corpus(3, 2, 0.5, 0.0, 5.0, seed=5, out_dir=tmp_path)
        victim = manifest.records[1]
        (tmp_path / victim.source_paths[0]).unlink()
        with pytest.raises(CorpusError, match=victim.example_id):
            load_corpus(manifest.path)

    def test_tampered_mixture_detected(self, tmp_path):
        manifest = generate_corpus(3, 2, 0.5, 0.0, 5.0, seed=6, out_dir=tmp_path)
        victim = manifest.records[2]
        wav = read_wav(tmp_path / victim.mixture_path)
        tampered = wav.samples.copy()
        tampered[100] = min(0.9, tampered[100] + 0.25)
        write_wav(type(wav)(tampered, wav.sample_rate_hz), tmp_path / victim.mixture_path)
        with pytest.raises(CorpusError, match="sum to mixture"):
            load_corpus(manifest.path)

    def test_wav_rate_must_match_manifest_header(self, tmp_path):
        manifest = generate_corpus(2, 2, 0.5, 0.0, 5.0, seed=8, out_dir=tmp_path, sample_rate_hz=8000)
        manifest.sample_rate_hz = 16000
        manifest.save()
        with pytest.raises(CorpusError, match="8000 Hz, manifest says 16000 Hz"):
            load_corpus(manifest.path)

    def test_manifest_header_required(self, tmp_path):
        bad = tmp_path / "manifest.jsonl"
        bad.write_text('{"kind": "example"}\n')
        with pytest.raises(CorpusError, match="corpus_meta"):
            Manifest.load(bad)


class TestSpectralSeparability:
    def test_disjoint_band_pools_give_high_irm_sdri(self, tmp_path):
        # speakers with non-overlapping harmonic bands: the oracle should soar
        rng = np.random.default_rng(0)
        low = [
            SpeakerProfile(100.0 + 25 * i, (1.0, 0.6, 0.4), float(rng.uniform(2, 8)), int(rng.integers(2**31)))
            for i in range(3)
        ]
        high = [
            SpeakerProfile(330.0 + 22 * i, (0.0, 0.0, 0.0, 1.0, 0.7, 0.5), float(rng.uniform(2, 8)),
                           int(rng.integers(2**31)))
            for i in range(3)
        ]
        sdris = []
        for i in range(4):
            ex = synth_example([low[i % 3], high[(i + 1) % 3]], 2.0, 1.0, 8000, seed=100 + i, example_id=f"e{i}")
            estimates = irm_separate(ex.mixture, ex.sources)
            pit = pit_assign(ex.sources, estimates)
            sdri = np.mean([
                pit.per_source_sdr_db[j] - sdr(ex.sources[pit.permutation[j]], ex.mixture).sdr_db
                for j in range(2)
            ])
            sdris.append(sdri)
        assert np.mean(sdris) > 15.0
