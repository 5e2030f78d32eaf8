"""Seeded synthetic multi-speaker corpus generation and manifest I/O.

"Speakers" are harmonic tone complexes with distinct fundamentals, amplitude
modulation, random phases, and slow pitch drift. They stand in for real speech:
the task structure (overlapping broadband periodic sources, SNR-controlled
mixing, unseen-fundamental test splits) is preserved while generation and
training stay minute-scale. This is a deliberate fidelity limitation.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signal import Waveform, mix_at_snr, mix_sum, read_wav, write_wav

GENERATOR_VERSION = "1"
MIN_F0_SEPARATION_HZ = 20.0
MIN_PAIR_GAP_HZ = 100.0  # same-example speakers are at least this far apart in f0
F0_RANGE_HZ = (100.0, 380.0)  # speaker pools spread their fundamentals over this range
PITCH_DRIFT_FRACTION = 0.03
AM_DEPTH = 0.3
NUM_HARMONICS = 4
PEAK_NORM = 0.7
MIX_HEADROOM_PEAK = 0.9
LOAD_ADDITIVITY_TOL = 2.0 / 32768  # three quantized files in the additivity check
DEFAULT_POOL_SIZE = 12


class CorpusError(ValueError):
    """Missing corpus files or integrity violations (wrong sample rate, broken additivity)."""


@dataclass(frozen=True)
class SpeakerProfile:
    fundamental_hz: float
    harmonic_weights: tuple[float, ...]
    am_rate_hz: float
    seed: int

    def __post_init__(self):
        if not (50.0 < self.fundamental_hz < 400.0):
            raise ValueError(f"fundamental_hz must be in (50, 400), got {self.fundamental_hz}")
        weights = tuple(float(w) for w in self.harmonic_weights)
        if not weights or not all(np.isfinite(weights)):
            raise ValueError("harmonic_weights must be non-empty and finite")
        object.__setattr__(self, "harmonic_weights", weights)


@dataclass(eq=False)
class MixtureExample:
    """A mixture, its post-scaling sources (mix_sum(sources) == mixture), and metadata."""

    mixture: Waveform
    sources: list[Waveform]
    snr_db: float
    example_id: str
    seed: int


def write_jsonl(path, rows) -> None:
    """Write one JSON object per line; every line is strict JSON.

    A NaN or infinite value raises ValueError naming path, before the file is
    opened, rather than writing the non-JSON tokens NaN or Infinity.
    """
    try:
        text = "".join(json.dumps(row, allow_nan=False) + "\n" for row in rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class ManifestRecord:
    example_id: str
    mixture_path: str
    source_paths: tuple[str, ...]
    snr_db: float
    seed: int


@dataclass(eq=False)
class Manifest:
    root: Path
    sample_rate_hz: int
    num_sources: int
    snr_min_db: float
    snr_max_db: float
    seed: int
    generator_version: str
    records: list[ManifestRecord]

    @property
    def path(self) -> Path:
        return self.root / "manifest.jsonl"

    def save(self) -> Path:
        meta = {
            "kind": "corpus_meta",
            "sample_rate_hz": self.sample_rate_hz,
            "num_sources": self.num_sources,
            "num_examples": len(self.records),
            "snr_min_db": self.snr_min_db,
            "snr_max_db": self.snr_max_db,
            "seed": self.seed,
            "generator_version": self.generator_version,
        }
        examples = ({
            "kind": "example",
            "example_id": r.example_id,
            "mixture": r.mixture_path,
            "sources": list(r.source_paths),
            "snr_db": r.snr_db,
            "seed": r.seed,
        } for r in self.records)
        write_jsonl(self.path, [meta, *examples])
        return self.path

    @classmethod
    def load(cls, manifest_path) -> "Manifest":
        manifest_path = Path(manifest_path)
        with open(manifest_path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if not lines or lines[0].get("kind") != "corpus_meta":
            raise CorpusError(f"{manifest_path}: missing corpus_meta header line")
        meta = lines[0]
        records = []
        seen = set()
        for entry in lines[1:]:
            if entry.get("kind") != "example":
                continue
            if entry["example_id"] in seen:
                raise CorpusError(f"{manifest_path}: duplicate example_id {entry['example_id']}")
            seen.add(entry["example_id"])
            records.append(ManifestRecord(
                example_id=entry["example_id"],
                mixture_path=entry["mixture"],
                source_paths=tuple(entry["sources"]),
                snr_db=float(entry["snr_db"]),
                seed=int(entry["seed"]),
            ))
        return cls(
            root=manifest_path.parent,
            sample_rate_hz=int(meta["sample_rate_hz"]),
            num_sources=int(meta["num_sources"]),
            snr_min_db=float(meta["snr_min_db"]),
            snr_max_db=float(meta["snr_max_db"]),
            seed=int(meta["seed"]),
            generator_version=str(meta["generator_version"]),
            records=records,
        )


def synth_speaker(profile: SpeakerProfile, duration_s: float, sample_rate_hz: int) -> Waveform:
    """One harmonic 'utterance': weighted harmonics with random phases, slow
    pitch drift (up to +-3%), optional amplitude modulation, peak 0.7.

    Harmonics at or above Nyquist are silently dropped.
    """
    if duration_s < 0.1:
        raise ValueError(f"duration_s must be >= 0.1, got {duration_s}")
    rng = np.random.default_rng(profile.seed)
    n = round(duration_s * sample_rate_hz)
    t = np.arange(n) / sample_rate_hz
    drift_rate = rng.uniform(0.1, 0.5)
    drift_phase = rng.uniform(0.0, 2.0 * np.pi)
    # time warp whose derivative is 1 + drift(t); integral taken analytically
    warp = t + PITCH_DRIFT_FRACTION / (2.0 * np.pi * drift_rate) * (
        np.cos(drift_phase) - np.cos(2.0 * np.pi * drift_rate * t + drift_phase)
    )
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(profile.harmonic_weights))
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    nyquist = sample_rate_hz / 2.0
    sig = np.zeros(n)
    for k, weight in enumerate(profile.harmonic_weights, start=1):
        if weight == 0.0:
            continue
        freq = k * profile.fundamental_hz
        if freq * (1.0 + PITCH_DRIFT_FRACTION) >= nyquist:
            continue
        sig += weight * np.sin(2.0 * np.pi * freq * warp + phases[k - 1])
    if profile.am_rate_hz > 0.0:
        sig *= 1.0 + AM_DEPTH * np.sin(2.0 * np.pi * profile.am_rate_hz * t + am_phase)
    peak = np.max(np.abs(sig))
    if peak == 0.0:
        raise ValueError("synth_speaker: no audible harmonics below Nyquist")
    return Waveform(sig * (PEAK_NORM / peak), sample_rate_hz)


def make_speaker_pool(num_speakers: int, seed: int, phase: float = 0.0) -> list[SpeakerProfile]:
    """Fundamentals in F0_RANGE_HZ on jittered slots at least 20 Hz apart.

    phase shifts every slot by that fraction of the spacing; pools built with
    phase 0.5 interleave with phase-0 pools, giving test splits genuinely
    unseen fundamentals.
    """
    lo, hi = F0_RANGE_HZ
    spacing = (hi - lo) / num_speakers
    if spacing < MIN_F0_SEPARATION_HZ:
        raise ValueError(
            f"cannot fit {num_speakers} speakers with {MIN_F0_SEPARATION_HZ} Hz separation in {F0_RANGE_HZ}"
        )
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(num_speakers):
        jitter = rng.uniform(0.0, spacing - MIN_F0_SEPARATION_HZ)
        f0 = lo + (i + phase) * spacing + jitter
        weights = tuple((1.0 / k) * rng.uniform(0.5, 1.2) for k in range(1, NUM_HARMONICS + 1))
        pool.append(SpeakerProfile(
            fundamental_hz=float(f0),
            harmonic_weights=weights,
            am_rate_hz=float(rng.uniform(2.0, 8.0)),
            seed=int(rng.integers(2**31)),
        ))
    return pool


def synth_example(
    profiles: list[SpeakerProfile],
    snr_db: float,
    duration_s: float,
    sample_rate_hz: int,
    seed: int,
    example_id: str,
) -> MixtureExample:
    """Synthesize S sources, scale interferers against source 1 at snr_db, mix.

    A common gain keeps every signal's peak at or below 0.9, so PCM writing
    never clips; mix_sum(sources) equals the mixture exactly.
    """
    srng = np.random.default_rng(seed)
    utterance_seeds = srng.integers(2**31, size=len(profiles))
    raw = [
        synth_speaker(dataclasses.replace(p, seed=int(s)), duration_s, sample_rate_hz)
        for p, s in zip(profiles, utterance_seeds)
    ]
    sources = [raw[0]]
    for interferer in raw[1:]:
        sources.append(mix_at_snr(raw[0], interferer, snr_db)[1])
    mixture = mix_sum(sources)
    peak = max(float(np.max(np.abs(w.samples))) for w in [mixture, *sources])
    if peak > MIX_HEADROOM_PEAK:
        gain = MIX_HEADROOM_PEAK / peak
        sources = [Waveform(w.samples * gain, sample_rate_hz) for w in sources]
        mixture = mix_sum(sources)
    return MixtureExample(mixture, sources, float(snr_db), example_id, seed)


def generate_corpus(
    num_examples: int,
    num_sources: int,
    duration_s: float,
    snr_min: float,
    snr_max: float,
    seed: int,
    out_dir,
    sample_rate_hz: int = 8000,
    pool: list[SpeakerProfile] | None = None,
) -> Manifest:
    """Generate WAV files plus a manifest binding mixtures to references."""
    if num_examples < 1:
        raise ValueError(f"num_examples must be >= 1, got {num_examples}")
    if num_sources < 2:
        raise ValueError(f"num_sources must be >= 2, got {num_sources}")
    if snr_min > snr_max:
        raise ValueError(f"snr_min {snr_min} > snr_max {snr_max}")
    rng = np.random.default_rng(seed)
    if pool is None:
        pool = make_speaker_pool(DEFAULT_POOL_SIZE, seed=int(rng.integers(2**31)))
    if len(pool) < num_sources:
        raise ValueError(f"speaker pool of {len(pool)} too small for {num_sources} sources")
    f0s = sorted(p.fundamental_hz for p in pool)
    if any(b - a < MIN_F0_SEPARATION_HZ for a, b in zip(f0s, f0s[1:])):
        raise ValueError(f"pool fundamentals closer than {MIN_F0_SEPARATION_HZ} Hz")
    root = Path(out_dir)
    (root / "wav").mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(num_examples):
        example_id = f"ex{i:05d}"
        example_seed = int(rng.integers(2**62))
        snr_db = float(rng.uniform(snr_min, snr_max))
        chosen = None
        for _ in range(200):
            cand = rng.choice(len(pool), size=num_sources, replace=False)
            f0s = sorted(pool[j].fundamental_hz for j in cand)
            if all(b - a >= MIN_PAIR_GAP_HZ for a, b in zip(f0s, f0s[1:])):
                chosen = cand
                break
        if chosen is None:
            raise ValueError(
                f"no speaker set with pairwise f0 gap >= {MIN_PAIR_GAP_HZ} Hz in this pool"
            )
        example = synth_example(
            [pool[j] for j in chosen], snr_db, duration_s, sample_rate_hz, example_seed, example_id
        )
        mixture_path = f"wav/{example_id}.mix.wav"
        source_paths = tuple(f"wav/{example_id}.s{s + 1}.wav" for s in range(num_sources))
        write_wav(example.mixture, root / mixture_path)
        for src, rel in zip(example.sources, source_paths):
            write_wav(src, root / rel)
        records.append(ManifestRecord(example_id, mixture_path, source_paths, snr_db, example_seed))
    manifest = Manifest(
        root=root,
        sample_rate_hz=sample_rate_hz,
        num_sources=num_sources,
        snr_min_db=float(snr_min),
        snr_max_db=float(snr_max),
        seed=seed,
        generator_version=GENERATOR_VERSION,
        records=records,
    )
    manifest.save()
    return manifest


def load_corpus(manifest_path) -> list[MixtureExample]:
    """Reload examples from a manifest, re-verifying WAV sample rates and mixture additivity."""
    manifest = Manifest.load(manifest_path)
    examples = []
    for record in manifest.records:
        try:
            mixture = read_wav(manifest.root / record.mixture_path)
            sources = [read_wav(manifest.root / p) for p in record.source_paths]
        except FileNotFoundError as exc:
            raise CorpusError(f"example {record.example_id}: missing file {exc.filename}") from exc
        for rel, wav in zip((record.mixture_path, *record.source_paths), (mixture, *sources)):
            if wav.sample_rate_hz != manifest.sample_rate_hz:
                raise CorpusError(
                    f"example {record.example_id}: {rel} is {wav.sample_rate_hz} Hz, "
                    f"manifest says {manifest.sample_rate_hz} Hz"
                )
        total = mix_sum(sources)
        worst = float(np.max(np.abs(total.samples - mixture.samples)))
        if worst > LOAD_ADDITIVITY_TOL + 1e-12:
            raise CorpusError(
                f"example {record.example_id}: sources do not sum to mixture "
                f"(max deviation {worst:.3e} > {LOAD_ADDITIVITY_TOL:.3e}); corpus corrupted?"
            )
        examples.append(MixtureExample(mixture, sources, record.snr_db, record.example_id, record.seed))
    return examples


def default_desk_corpus(root, seed: int = 2024, sample_rate_hz: int = 8000) -> dict[str, Manifest]:
    """The standard desk-scale corpus: 200 train / 40 dev / 40 test examples of
    1 s each, SNR uniform in [0, 5] dB, S=2; test uses an interleaved
    (unseen-fundamental) speaker pool."""
    root = Path(root)
    train_pool = make_speaker_pool(DEFAULT_POOL_SIZE, seed=seed * 7 + 1, phase=0.0)
    test_pool = make_speaker_pool(DEFAULT_POOL_SIZE, seed=seed * 7 + 2, phase=0.5)
    return {
        "train": generate_corpus(200, 2, 1.0, 0.0, 5.0, seed + 1, root / "train",
                                 sample_rate_hz, pool=train_pool),
        "dev": generate_corpus(40, 2, 1.0, 0.0, 5.0, seed + 2, root / "dev",
                               sample_rate_hz, pool=train_pool),
        "test": generate_corpus(40, 2, 1.0, 0.0, 5.0, seed + 3, root / "test",
                                sample_rate_hz, pool=test_pool),
    }
