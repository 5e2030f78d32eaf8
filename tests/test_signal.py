import struct
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from furcasep.signal import (
    FrameGeometry,
    _overlap_add_padded,
    WavFormatError,
    Waveform,
    frame,
    mix_at_snr,
    mix_sum,
    overlap_add,
    read_wav,
    write_wav,
)


def wav_of(samples, rate=8000):
    return Waveform(np.asarray(samples, dtype=np.float64), rate)


class TestWavIO:
    def test_fixed_point_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(struct.pack("<3h", 0, 16384, -32768))
        got = read_wav(path)
        assert got.sample_rate_hz == 8000
        assert np.array_equal(got.samples, [0.0, 0.5, -1.0])

    def test_grid_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.integers(-32768, 32768, size=257) / 32768.0
        path = tmp_path / "g.wav"
        assert write_wav(wav_of(grid), path) == 0
        assert np.array_equal(read_wav(path).samples, grid)

    def test_two_channel_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(struct.pack("<4h", 1, 2, 3, 4))
        with pytest.raises(WavFormatError, match="channels"):
            read_wav(path)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(8000)
            w.writeframes(b"\x00\x01")
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a riff file at all")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_single_sample_file(self, tmp_path):
        path = tmp_path / "one.wav"
        write_wav(wav_of([0.0]), path)
        got = read_wav(path)
        assert len(got) == 1 and got.sample_rate_hz == 8000

    def test_clipping_reported(self, tmp_path):
        path = tmp_path / "c.wav"
        assert write_wav(wav_of([1.5]), path) == 1
        assert read_wav(path).samples[0] == 32767 / 32768

    @given(samples=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_quantization_bound(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("wav") / "rt.wav"
        w = wav_of(samples)
        assert write_wav(w, path) == 0
        back = read_wav(path)
        assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768


def loop_overlap_add_padded(frames, hop):
    """Per-frame loop reference: anchor each sample on its first covering
    frame, then add the residuals frame by frame in increasing index."""
    num, frame_len = frames.shape
    padded = (num - 1) * hop + frame_len
    first = np.zeros(padded)
    for t in reversed(range(num)):
        first[t * hop : t * hop + frame_len] = frames[t]
    resid = np.zeros(padded)
    count = np.zeros(padded)
    for t in range(num):
        sl = slice(t * hop, t * hop + frame_len)
        resid[sl] += frames[t] - first[sl]
        count[sl] += 1.0
    return first + resid / count


def brute_force_frame_count(n, frame_len, hop):
    # place frames at multiples of hop until one reaches the end of the signal
    count, start = 1, 0
    while start + frame_len < n:
        start += hop
        count += 1
    return count


class TestFraming:
    def test_len_200(self):
        fm = frame(wav_of(np.arange(200.0) / 200), FrameGeometry(80, 40))
        assert fm.num_frames == 4
        assert fm.frames.shape == (4, 80)
        assert np.array_equal(fm.frames[3], np.arange(120.0, 200.0) / 200)

    def test_single_frame_identity(self):
        x = np.random.default_rng(1).normal(size=80)
        fm = frame(wav_of(x), FrameGeometry(80, 40))
        assert fm.num_frames == 1
        assert np.array_equal(fm.frames[0], x)

    def test_len_81_padded_tail(self):
        fm = frame(wav_of(np.ones(81)), FrameGeometry(80, 40))
        assert fm.num_frames == 2
        assert np.array_equal(fm.frames[1][:41], np.ones(41))
        assert np.array_equal(fm.frames[1][41:], np.zeros(39))

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_frame_count_matches_brute_force(self, n, frame_len, hop):
        if hop > frame_len:
            hop = frame_len
        fm = frame(wav_of(np.zeros(n)), FrameGeometry(frame_len, hop))
        assert fm.num_frames == brute_force_frame_count(n, frame_len, hop)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            FrameGeometry(40, 80)
        with pytest.raises(ValueError):
            FrameGeometry(0, 1)


class TestOverlapAdd:
    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_for_all_geometries(self, n, frame_len, hop, seed):
        if hop > frame_len:
            hop = frame_len
        x = np.random.default_rng(seed).normal(size=n)
        w = wav_of(x)
        back = overlap_add(frame(w, FrameGeometry(frame_len, hop)))
        assert len(back) == n
        assert np.array_equal(back.samples, x)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(6, 7, 3, 7)  # frame_len not a multiple of hop, three pieces per frame
    @example(6, 7, 5, 7)  # a short second piece
    @settings(max_examples=200, deadline=None)
    def test_padded_matches_per_frame_loop(self, num, frame_len, hop, seed):
        if hop > frame_len:
            hop = frame_len
        frames = np.random.default_rng(seed).normal(size=(num, frame_len))
        assert np.array_equal(_overlap_add_padded(frames, hop), loop_overlap_add_padded(frames, hop))

    def test_single_frame(self):
        x = np.random.default_rng(2).normal(size=80)
        fm = frame(wav_of(x), FrameGeometry(80, 80))
        assert np.array_equal(overlap_add(fm).samples, x)

    def test_hand_averaged_overlap(self):
        from furcasep.signal import FrameMatrix

        fm = FrameMatrix(np.array([[1.0, 1.0], [3.0, 3.0]]), FrameGeometry(2, 1), 3, 8000)
        assert np.array_equal(overlap_add(fm).samples, [1.0, 2.0, 3.0])


class TestMixing:
    def test_equal_power_zero_snr(self):
        rng = np.random.default_rng(3)
        s1 = wav_of(rng.normal(size=1000))
        s2 = wav_of(np.roll(s1.samples, 500))  # same power
        _, scaled = mix_at_snr(s1, s2, 0.0)
        alpha = scaled.samples[0] / s2.samples[0]
        assert alpha == pytest.approx(1.0, abs=1e-12)

    def test_four_times_power_alpha_half(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=1000)
        s1 = wav_of(base)
        s2 = wav_of(2.0 * np.roll(base, 100))
        _, scaled = mix_at_snr(s1, s2, 0.0)
        alpha = scaled.samples[0] / s2.samples[0]
        assert alpha == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(min_value=-20, max_value=20), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_requested_snr_achieved(self, snr_db, seed):
        rng = np.random.default_rng(seed)
        s1 = wav_of(rng.normal(size=500))
        s2 = wav_of(rng.normal(size=500))
        _, scaled = mix_at_snr(s1, s2, snr_db)
        measured = 10.0 * np.log10(s1.power() / scaled.power())
        assert measured == pytest.approx(snr_db, abs=1e-9)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError, match="nonzero energy"):
            mix_at_snr(wav_of(np.zeros(10)), wav_of(np.ones(10)), 0.0)

    def test_mix_sum_additive_identity(self):
        x = wav_of(np.random.default_rng(5).normal(size=64))
        zero = wav_of(np.zeros(64))
        assert np.array_equal(mix_sum([x, zero]).samples, x.samples)

    def test_mix_sum_cancellation(self):
        x = wav_of(np.random.default_rng(6).normal(size=64))
        neg = wav_of(-x.samples)
        assert np.array_equal(mix_sum([x, neg]).samples, np.zeros(64))

    def test_mix_sum_impulses(self):
        imps = []
        for pos in (3, 10, 20):
            s = np.zeros(32)
            s[pos] = 1.0
            imps.append(wav_of(s))
        total = mix_sum(imps)
        assert total.samples.sum() == 3.0
        assert set(np.nonzero(total.samples)[0]) == {3, 10, 20}

    def test_mix_sum_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            mix_sum([wav_of(np.ones(4)), wav_of(np.ones(5))])
