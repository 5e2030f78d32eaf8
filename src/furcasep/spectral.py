"""STFT analysis-synthesis on numpy's FFT, and the ideal-ratio-mask oracle separator.

Analysis frames come from signal.frame and synthesis sums frames with
signal._overlap_sum, the same framing and overlap-sum the network's output
stage uses.

The oracle applies per-bin magnitude-ratio masks to the mixture spectrogram
(mixture phase retained) and inverts; it is the upper bound that time-frequency
masking methods cannot exceed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .signal import FrameGeometry, Waveform, _overlap_sum, frame

DEFAULT_FFT_SIZE = 256  # 32 ms at 8 kHz
DEFAULT_HOP = 128


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def fft(x) -> np.ndarray:
    """Forward DFT over the last axis (numpy FFT).

    Length must be a power of two. Unnormalized convention:
    X[k] = sum_n x[n] exp(-2j*pi*n*k/N).
    """
    x = np.asarray(x)
    if not _is_power_of_two(x.shape[-1]):
        raise ValueError(f"FFT length must be a power of two, got {x.shape[-1]}")
    return np.fft.fft(x)


def sqrt_hann_window(n: int) -> np.ndarray:
    """Square root of the periodic Hann window; exact COLA at 50% overlap."""
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))


@dataclass(eq=False)
class Spectrogram:
    """Non-negative-frequency STFT bins [num_frames x (fft_size/2 + 1)] of square-root-Hann frames."""

    bins: np.ndarray
    fft_size: int
    hop: int
    original_len: int
    sample_rate_hz: int

    @property
    def num_frames(self) -> int:
        return self.bins.shape[0]


def _validate_sizes(fft_size: int, hop: int) -> None:
    if not _is_power_of_two(fft_size):
        raise ValueError(f"fft_size must be a power of two, got {fft_size}")
    if hop < 1 or hop > fft_size:
        raise ValueError(f"hop must be in [1, fft_size], got hop={hop}, fft_size={fft_size}")


def stft(w: Waveform, fft_size: int = DEFAULT_FFT_SIZE, hop: int = DEFAULT_HOP) -> Spectrogram:
    """Square-root-Hann windowed frames, forward DFT, non-negative bins kept."""
    _validate_sizes(fft_size, hop)
    fm = frame(w, FrameGeometry(fft_size, hop))
    windowed = fm.frames * sqrt_hann_window(fft_size)
    spec = fft(windowed)[:, : fft_size // 2 + 1]
    return Spectrogram(spec, fft_size, hop, len(w), w.sample_rate_hz)


def istft(s: Spectrogram) -> Waveform:
    """Square-root-Hann synthesis with overlap-add and window-power normalization.

    Inverts stft() to within 1e-6 relative error on interior samples; the first
    and last fft_size samples see partial window overlap and are not covered by
    that bound. The imaginary parts of the DC and Nyquist bins are ignored, as
    in the real part of a Hermitian-extended inverse DFT.
    """
    n = s.fft_size
    win = sqrt_hann_window(n)
    frames = np.fft.irfft(s.bins, n) * win
    acc = _overlap_sum(frames, s.hop)
    norm = _overlap_sum(np.broadcast_to(win * win, frames.shape), s.hop)
    out = acc / np.maximum(norm, 1e-12)
    return Waveform(out[: s.original_len], s.sample_rate_hz)


def irm_masks(sources: list[Waveform], fft_size: int = DEFAULT_FFT_SIZE,
              hop: int = DEFAULT_HOP) -> list[np.ndarray]:
    """Ideal ratio masks, one per source: per-bin source magnitude over the total magnitude.

    The masks lie in [0, 1] and sum to 1 over sources at every bin. Bins where
    every source magnitude is zero get the uniform mask 1/S.
    """
    if len(sources) < 2:
        raise ValueError(f"irm_masks needs at least 2 sources, got {len(sources)}")
    mags = [np.abs(stft(src, fft_size, hop).bins) for src in sources]
    total = np.sum(mags, axis=0)
    uniform = 1.0 / len(sources)
    with np.errstate(invalid="ignore", divide="ignore"):
        return [np.where(total > 0.0, m / total, uniform) for m in mags]


def irm_separate(
    mixture: Waveform,
    sources: list[Waveform],
    fft_size: int = DEFAULT_FFT_SIZE,
    hop: int = DEFAULT_HOP,
) -> list[Waveform]:
    """Oracle separation: mask the mixture STFT with the IRM, keep mixture phase, invert."""
    for src in sources:
        if len(src) != len(mixture):
            raise ValueError(f"irm_separate: source length {len(src)} != mixture length {len(mixture)}")
        if src.sample_rate_hz != mixture.sample_rate_hz:
            raise ValueError(
                f"irm_separate: source sample rate {src.sample_rate_hz} Hz "
                f"!= mixture sample rate {mixture.sample_rate_hz} Hz"
            )
    mix_spec = stft(mixture, fft_size, hop)
    out = []
    for mask in irm_masks(sources, fft_size, hop):
        out.append(istft(dataclasses.replace(mix_spec, bins=mix_spec.bins * mask)))
    return out
