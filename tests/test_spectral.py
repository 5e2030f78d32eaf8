import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from furcasep.metrics import sdr
from furcasep.signal import Waveform
from furcasep.spectral import (
    Spectrogram,
    fft,
    irm_masks,
    irm_separate,
    istft,
    sqrt_hann_window,
    stft,
)


def naive_dft(x):
    """O(n^2) reference DFT, same unnormalized convention as fft()."""
    n = len(x)
    k = np.arange(n)
    return np.asarray(x) @ np.exp(-2j * np.pi * np.outer(k, k) / n)


def wav_of(samples, rate=8000):
    return Waveform(np.asarray(samples, dtype=np.float64), rate)


class TestFft:
    @given(
        st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_naive_dft(self, n, seed, complex_input):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        if complex_input:
            x = x + 1j * rng.normal(size=n)
        got = fft(x)
        want = naive_dft(x)
        ref = max(np.max(np.abs(want)), 1.0)
        assert np.max(np.abs(got - want)) / ref < 1e-9

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            fft(np.zeros(12))

    def test_batched_rows(self):
        x = np.random.default_rng(4).normal(size=(5, 32))
        got = fft(x)
        for row_in, row_out in zip(x, got):
            assert np.max(np.abs(row_out - naive_dft(row_in))) < 1e-9


class TestStft:
    def test_zero_signal_zero_bins(self):
        spec = stft(wav_of(np.zeros(1000)), 256, 128)
        assert np.all(spec.bins == 0)

    def test_sinusoid_concentrates_at_its_bin(self):
        fs, n_fft = 8000, 256
        k = 12
        t = np.arange(4000) / fs
        spec = stft(wav_of(np.sin(2 * np.pi * (k * fs / n_fft) * t)), n_fft, 128)
        mags = np.abs(spec.bins[4])  # an interior frame
        assert int(np.argmax(mags)) == k

    def test_parseval_per_frame(self):
        n_fft = 128
        rng = np.random.default_rng(5)
        x = rng.normal(size=600)
        spec = stft(wav_of(x), n_fft, 64)
        win = sqrt_hann_window(n_fft)
        frame0 = x[:n_fft] * win
        time_energy = np.sum(frame0 * frame0)
        bins = spec.bins[0]
        spec_energy = (np.abs(bins[0]) ** 2 + 2 * np.sum(np.abs(bins[1:-1]) ** 2) + np.abs(bins[-1]) ** 2) / n_fft
        assert spec_energy == pytest.approx(time_energy, rel=1e-9)

    def test_invalid_sizes(self):
        w = wav_of(np.zeros(100))
        with pytest.raises(ValueError):
            stft(w, 100, 50)
        with pytest.raises(ValueError):
            stft(w, 128, 200)


class TestIstft:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([(256, 128), (128, 64), (64, 32), (256, 64)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_interior(self, seed, sizes):
        n_fft, hop = sizes
        x = np.random.default_rng(seed).normal(size=8000)
        w = wav_of(x)
        back = istft(stft(w, n_fft, hop))
        assert len(back) == len(w)
        interior = slice(n_fft, len(x) - n_fft)
        err = np.linalg.norm(back.samples[interior] - x[interior]) / np.linalg.norm(x[interior])
        assert err < 1e-6

    def test_zero_spectrogram(self):
        spec = stft(wav_of(np.zeros(2000)), 256, 128)
        assert np.all(istft(spec).samples == 0)

    def test_length_preserved(self):
        for n in (300, 1000, 1023):
            w = wav_of(np.random.default_rng(n).normal(size=n))
            assert len(istft(stft(w, 256, 128))) == n


def overlap_loop(frames, hop, win):
    """Reference per-frame synthesis loop; istft's slab passes must match it bit for bit."""
    num, n = frames.shape
    padded = (num - 1) * hop + n
    acc = np.zeros(padded)
    norm = np.zeros(padded)
    win_sq = win * win
    for t in range(num):
        sl = slice(t * hop, t * hop + n)
        acc[sl] += frames[t]
        norm[sl] += win_sq
    return acc / np.maximum(norm, 1e-12)


def random_spectrogram(rng, fft_size, hop, num_frames):
    shape = (num_frames, fft_size // 2 + 1)
    bins = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    padded = (num_frames - 1) * hop + fft_size
    return Spectrogram(bins, fft_size, hop, padded, 8000)


class TestIstftVectorised:
    @given(
        st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    @example(64, 23 / 63, 9, 0)  # hop 24 does not divide 64
    @example(32, 6 / 31, 9, 1)  # hop 7 is coprime with 32
    def test_equals_per_frame_loop_bit_for_bit(self, fft_size, hop_fraction, num_frames, seed):
        hop = 1 + round(hop_fraction * (fft_size - 1))
        spec = random_spectrogram(np.random.default_rng(seed), fft_size, hop, num_frames)
        win = sqrt_hann_window(fft_size)
        want = overlap_loop(np.fft.irfft(spec.bins, fft_size) * win, hop, win)
        got = istft(spec).samples
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fft_size, hop", [(256, 128), (64, 24), (8, 3)])
    def test_matches_hermitian_ifft_path_with_complex_dc_and_nyquist(self, fft_size, hop):
        spec = random_spectrogram(np.random.default_rng(fft_size), fft_size, hop, 11)
        half = fft_size // 2
        assert np.all(spec.bins[:, 0].imag != 0) and np.all(spec.bins[:, half].imag != 0)
        full = np.empty((spec.num_frames, fft_size), dtype=np.complex128)
        full[:, : half + 1] = spec.bins
        full[:, half + 1 :] = np.conj(spec.bins[:, 1:half])[:, ::-1]
        win = sqrt_hann_window(fft_size)
        want = overlap_loop(np.fft.ifft(full).real * win, hop, win)
        assert np.max(np.abs(istft(spec).samples - want)) < 1e-12


def two_tone_sources(n=8000, fs=8000):
    """Two multi-tone sources whose frequency support is disjoint."""
    t = np.arange(n) / fs
    low = sum(np.sin(2 * np.pi * f * t + 0.1 * f) for f in (200.0, 400.0))
    high = sum(np.sin(2 * np.pi * f * t + 0.2 * f) for f in (1500.0, 2200.0))
    return wav_of(0.3 * low / np.max(np.abs(low))), wav_of(0.3 * high / np.max(np.abs(high)))


class TestIrm:
    def test_identical_sources_half_masks(self):
        x = wav_of(np.random.default_rng(7).normal(size=3000))
        masks = irm_masks([x, x], 256, 128)
        for m in masks:
            assert np.allclose(m, 0.5)

    def test_disjoint_bins_masks_saturate(self):
        s1, s2 = two_tone_sources()
        masks = irm_masks([s1, s2], 256, 128)
        spec1 = np.abs(stft(s1, 256, 128).bins)
        frame = 10
        own_bin = int(np.argmax(spec1[frame]))
        other = int(np.argmax(np.abs(stft(s2, 256, 128).bins)[frame]))
        assert masks[0][frame, own_bin] > 0.95
        assert masks[0][frame, other] < 0.05

    def test_masks_sum_to_one(self):
        rng = np.random.default_rng(8)
        sources = [wav_of(rng.normal(size=2000)) for _ in range(3)]
        masks = irm_masks(sources, 128, 64)
        total = np.sum(masks, axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_zero_bins_get_uniform_masks(self):
        silent = wav_of(np.zeros(1000))
        masks = irm_masks([silent, silent], 128, 64)
        for m in masks:
            assert np.allclose(m, 0.5)

    def test_disjoint_band_separation_above_20db(self):
        s1, s2 = two_tone_sources()
        mixture = wav_of(s1.samples + s2.samples)
        est = irm_separate(mixture, [s1, s2], 256, 128)
        for target, estimate in zip((s1, s2), est):
            assert sdr(target, estimate).sdr_db > 20.0

    def test_identical_sources_split_mixture(self):
        x = wav_of(0.4 * np.random.default_rng(9).normal(size=3000))
        mixture = wav_of(2.0 * x.samples)
        est = irm_separate(mixture, [x, x], 256, 128)
        recon = istft(stft(mixture, 256, 128))
        for e in est:
            assert np.allclose(e.samples, recon.samples / 2, atol=1e-9)

    @pytest.mark.parametrize(
        "reshape, match",
        [(lambda w: wav_of(w.samples[:-1]), "length"), (lambda w: wav_of(w.samples, rate=16000), "sample rate")],
    )
    def test_mismatched_source_rejected(self, reshape, match):
        s1, s2 = two_tone_sources()
        mixture = wav_of(s1.samples + s2.samples)
        with pytest.raises(ValueError, match=match):
            irm_separate(mixture, [s1, reshape(s2)])

    def test_outputs_sum_to_mixture(self):
        s1, s2 = two_tone_sources()
        mixture = wav_of(s1.samples + s2.samples)
        est = irm_separate(mixture, [s1, s2], 256, 128)
        total = est[0].samples + est[1].samples
        recon = istft(stft(mixture, 256, 128)).samples
        assert np.max(np.abs(total - recon)) < 1e-9  # exact up to fp: masks sum to 1
        interior = slice(256, -256)
        rel = np.linalg.norm(total[interior] - mixture.samples[interior]) / np.linalg.norm(
            mixture.samples[interior]
        )
        assert rel < 1e-6
