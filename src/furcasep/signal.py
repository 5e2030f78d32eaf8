"""Time-domain substrate: waveforms, PCM-16 WAV I/O, framing, overlap-add, SNR mixing."""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

PCM_SCALE = 32768  # 16-bit full scale; float samples map to [-1, 1)


class WavFormatError(ValueError):
    """WAV content this library refuses to read (non-PCM-16 mono, bad/truncated header)."""


@dataclass(frozen=True, eq=False)
class Waveform:
    """A mono audio signal: float64 samples (nominal range [-1, 1]) at a fixed rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        rate = int(self.sample_rate_hz)
        if rate <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz

    def energy(self) -> float:
        return float(np.dot(self.samples, self.samples))

    def power(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.mean(self.samples * self.samples))


@dataclass(frozen=True)
class FrameGeometry:
    """Rectangular framing: frame_len samples per frame, advancing by hop."""

    frame_len: int = 80
    hop: int = 40

    def __post_init__(self):
        if self.frame_len < 1 or self.hop < 1:
            raise ValueError(f"frame_len and hop must be positive, got ({self.frame_len}, {self.hop})")
        if self.hop > self.frame_len:
            raise ValueError(f"hop {self.hop} must not exceed frame_len {self.frame_len}")

    def num_frames(self, num_samples: int) -> int:
        """Frames needed to cover the signal; the tail frame is zero-padded when short."""
        if num_samples < 1:
            raise ValueError("cannot frame an empty signal")
        overhang = max(0, num_samples - self.frame_len)
        return 1 + -(-overhang // self.hop)


@dataclass(eq=False)
class FrameMatrix:
    """Stacked frames [num_frames x frame_len] plus what is needed to invert the framing."""

    frames: np.ndarray
    geometry: FrameGeometry
    original_len: int
    sample_rate_hz: int

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def padded_len(self) -> int:
        return (self.num_frames - 1) * self.geometry.hop + self.geometry.frame_len


def read_wav(path) -> Waveform:
    """Read a mono PCM-16 little-endian WAV file, scaling samples by 1/32768."""
    try:
        reader = wave.open(str(path), "rb")
    except FileNotFoundError:
        raise
    except (wave.Error, EOFError) as exc:
        raise WavFormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    with reader:
        if reader.getcomptype() != "NONE":
            raise WavFormatError(f"{path}: compressed WAV ({reader.getcomptype()}) not supported, PCM only")
        channels = reader.getnchannels()
        if channels != 1:
            raise WavFormatError(f"{path}: expected mono audio, got {channels} channels")
        width = reader.getsampwidth()
        if width != 2:
            raise WavFormatError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
        rate = reader.getframerate()
        n = reader.getnframes()
        raw = reader.readframes(n)
    if len(raw) != 2 * n:
        raise WavFormatError(f"{path}: truncated data chunk ({len(raw)} bytes for {n} frames)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Waveform(samples, rate)


def write_wav(w: Waveform, path) -> int:
    """Write a mono PCM-16 WAV file. Samples outside [-1, 1] are clamped; returns the clamp count."""
    s = w.samples
    clipped = int(np.count_nonzero((s < -1.0) | (s > 1.0)))
    q = np.rint(np.clip(s, -1.0, 1.0) * PCM_SCALE)
    q = np.clip(q, -PCM_SCALE, PCM_SCALE - 1).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(w.sample_rate_hz)
        writer.writeframes(q.tobytes())
    return clipped


def frame(w: Waveform, g: FrameGeometry) -> FrameMatrix:
    """Slice into rectangular frames, zero-padding the tail so every frame is full."""
    n = len(w)
    num = g.num_frames(n)
    buf = np.zeros((num - 1) * g.hop + g.frame_len)
    buf[:n] = w.samples
    frames = np.lib.stride_tricks.sliding_window_view(buf, g.frame_len)[:: g.hop].copy()
    return FrameMatrix(frames, g, n, w.sample_rate_hz)


def overlap_count(num_frames: int, frame_len: int, hop: int) -> np.ndarray:
    """How many of num_frames frames, hop apart, cover each sample of the padded signal."""
    pos = np.arange((num_frames - 1) * hop + frame_len)
    first = np.maximum(pos - frame_len + hop, 0) // hop  # ceil((pos - frame_len + 1) / hop), clipped at 0
    last = np.minimum(pos // hop, num_frames - 1)
    return (last - first + 1).astype(np.float64)


def _overlap_add_padded(frames: np.ndarray, hop: int) -> np.ndarray:
    """Average overlapping frame contributions over the full padded length.

    Averaging is anchored on the first covering frame: out = first + mean(others - first).
    When all covering values are identical (frames produced by frame()), the residual sum
    is exactly zero, so the analysis-synthesis identity holds bit-exactly.

    Frames are cut into ceil(frame_len/hop) pieces of hop samples; piece j of frame t
    lands on hop-block t+j of the output, so each pass over one piece index is a single
    vectorised slab operation. A larger piece index means an earlier frame, so the
    residual passes run from the last piece to the first: every sample adds its
    residuals in increasing frame index, the same order as a per-frame loop.
    """
    num, frame_len = frames.shape
    padded = (num - 1) * hop + frame_len
    pieces = -(-frame_len // hop)
    width = [min(hop, frame_len - j * hop) for j in range(pieces)]
    blocks = num - 1 + pieces  # hop-blocks of output; the last may run past padded
    first = np.zeros((blocks, hop))
    for j in range(pieces):  # later pieces come from earlier frames and overwrite
        first[j : j + num, : width[j]] = frames[:, j * hop : j * hop + width[j]]
    resid = np.zeros((blocks, hop))
    for j in reversed(range(pieces)):
        block = slice(j, j + num)
        resid[block, : width[j]] += frames[:, j * hop : j * hop + width[j]] - first[block, : width[j]]
    first = first.reshape(-1)[:padded]
    resid = resid.reshape(-1)[:padded]
    return first + resid / overlap_count(num, frame_len, hop)


def overlap_add(f: FrameMatrix) -> Waveform:
    """Reconstruct a waveform: each sample is the average of the frame values covering it."""
    out = _overlap_add_padded(f.frames, f.geometry.hop)
    return Waveform(out[: f.original_len], f.sample_rate_hz)


def _check_compatible(waves, op_name):
    lengths = {len(w) for w in waves}
    if len(lengths) != 1:
        raise ValueError(f"{op_name}: waveform lengths differ: {sorted(lengths)}")
    rates = {w.sample_rate_hz for w in waves}
    if len(rates) != 1:
        raise ValueError(f"{op_name}: sample rates differ: {sorted(rates)}")


def mix_at_snr(s1: Waveform, s2: Waveform, snr_db: float) -> tuple[Waveform, Waveform]:
    """Scale s2 so that the s1-to-s2 power ratio equals snr_db, then mix.

    Returns (mixture, scaled_s2); the scaled interferer is what SDR targets
    should be measured against.
    """
    _check_compatible([s1, s2], "mix_at_snr")
    p1 = s1.power()
    p2 = s2.power()
    if p1 == 0.0 or p2 == 0.0:
        raise ValueError("mix_at_snr: both inputs must have nonzero energy")
    alpha = np.sqrt(p1 / (p2 * 10.0 ** (snr_db / 10.0)))
    scaled = Waveform(alpha * s2.samples, s2.sample_rate_hz)
    mixture = Waveform(s1.samples + scaled.samples, s1.sample_rate_hz)
    return mixture, scaled


def mix_sum(sources: list[Waveform]) -> Waveform:
    """Elementwise sum of equal-length, equal-rate waveforms."""
    if not sources:
        raise ValueError("mix_sum: need at least one source")
    _check_compatible(sources, "mix_sum")
    total = sources[0].samples.copy()
    for src in sources[1:]:
        total += src.samples
    return Waveform(total, sources[0].sample_rate_hz)
