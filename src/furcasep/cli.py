"""Command-line surface: corpus generation, training, separation, evaluation.

Data goes to files, diagnostics to stderr, exit status reflects success.
Reports and manifests are line-delimited JSON so downstream tooling needs no
code from this package.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .corpus import generate_corpus, load_corpus
from .metrics import PitResult, pit_assign, sdr
from .model import FurcaNet, ModelConfig, build, load_checkpoint
from .signal import Waveform, read_wav, write_wav
from .spectral import irm_separate
from .training import TrainConfig, train

IDENTITY_MODEL = "identity"  # evaluation stub: every output is the mixture itself


def parse_config_file(path) -> tuple[ModelConfig, TrainConfig]:
    """Parse 'key = value' lines ('#' comments) into model and training configs."""
    model_types = typing.get_type_hints(ModelConfig)
    train_types = typing.get_type_hints(TrainConfig)
    model_kwargs: dict = {}
    train_kwargs: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in model_types:
                kwargs, convert = model_kwargs, model_types[key]
            elif key in train_types:
                kwargs, convert = train_kwargs, train_types[key]
            else:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                kwargs[key] = convert(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} = {value!r} is not a valid {convert.__name__}") from None
    model_cfg = ModelConfig(**model_kwargs)
    model_cfg.validate()
    train_cfg = TrainConfig(**train_kwargs)
    train_cfg.validate()
    return model_cfg, train_cfg


def _separate_for_eval(model, example) -> list[Waveform]:
    if model == IDENTITY_MODEL:
        return [example.mixture] * len(example.sources)
    return model.separate(example.mixture)


def _pit_sdri(sources, estimates, baseline: list[float]) -> tuple[PitResult, list[float]]:
    """PIT assignment, and per output its SDR minus baseline[k], the mixture's SDR against its target k."""
    pit = pit_assign(sources, estimates)
    return pit, [pit.per_source_sdr_db[j] - baseline[k] for j, k in enumerate(pit.permutation)]


def evaluate_model(model, examples, with_irm_oracle: bool = False) -> tuple[list[dict], dict]:
    """Per-example records (SDR, SDRi, permutation; optional IRM-oracle SDRi) plus aggregates."""
    records = []
    for example in sorted(examples, key=lambda e: e.example_id):
        estimates = _separate_for_eval(model, example)
        baseline = [sdr(src, example.mixture).sdr_db for src in example.sources]
        pit, sdri = _pit_sdri(example.sources, estimates, baseline)
        record = {
            "kind": "example",
            "example_id": example.example_id,
            "permutation": list(pit.permutation),
            "per_source_sdr_db": list(pit.per_source_sdr_db),
            "per_source_sdri_db": sdri,
            "sdri_db": float(np.mean(sdri)),
        }
        if with_irm_oracle:
            oracle = irm_separate(example.mixture, example.sources)
            _, oracle_sdri = _pit_sdri(example.sources, oracle, baseline)
            record["irm_sdri_db"] = float(np.mean(oracle_sdri))
        records.append(record)
    sdris = [r["sdri_db"] for r in records]
    aggregate = {
        "kind": "aggregate",
        "num_examples": len(records),
        "mean_sdri_db": float(np.mean(sdris)),
        "median_sdri_db": float(np.median(sdris)),
    }
    if with_irm_oracle:
        aggregate["mean_irm_sdri_db"] = float(np.mean([r["irm_sdri_db"] for r in records]))
    return records, aggregate


def write_eval_report(path, header: dict, records: list[dict], aggregate: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "eval_config", **header}) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps(aggregate) + "\n")


def cmd_mix(args) -> int:
    manifest = generate_corpus(
        num_examples=args.num,
        num_sources=args.sources,
        duration_s=args.duration,
        snr_min=args.snr_min,
        snr_max=args.snr_max,
        seed=args.seed,
        out_dir=args.out,
        sample_rate_hz=args.sample_rate,
    )
    print(manifest.path)
    return 0


def cmd_train(args) -> int:
    if args.config is not None:
        model_cfg, train_cfg = parse_config_file(args.config)
    else:
        model_cfg, train_cfg = ModelConfig(), TrainConfig()
    if args.epochs is not None:
        train_cfg = dataclasses.replace(train_cfg, max_epochs=args.epochs)
    if args.seed is not None:
        train_cfg = dataclasses.replace(train_cfg, seed=args.seed)
        model_cfg = dataclasses.replace(model_cfg, seed=args.seed)
    train_set = load_corpus(args.data)
    dev_set = load_corpus(args.dev)
    for name, examples in (("train", train_set), ("dev", dev_set)):
        counts = {len(e.sources) for e in examples}
        if counts != {model_cfg.num_sources}:
            raise ValueError(
                f"{name} corpus has source counts {sorted(counts)}, "
                f"model config expects {model_cfg.num_sources}"
            )
    model = build(model_cfg)
    report = train(model, train_set, dev_set, train_cfg, out_dir=args.out)
    print(Path(args.out) / "model.ckpt")
    print(f"best dev loss {report.best_dev_loss:.3f} dB at epoch {report.best_epoch}", file=sys.stderr)
    return 0


def cmd_separate(args) -> int:
    model = load_checkpoint(args.model)
    mixture = read_wav(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    for i, estimate in enumerate(model.separate(mixture), start=1):
        out_path = out_dir / f"{stem}.s{i}.wav"
        clamped = write_wav(estimate, out_path)
        if clamped:
            print(f"warning: {out_path}: {clamped} samples clamped to [-1, 1]", file=sys.stderr)
    print(out_dir)
    return 0


def cmd_evaluate(args) -> int:
    examples = load_corpus(args.data)
    if args.model == IDENTITY_MODEL:
        model: FurcaNet | str = IDENTITY_MODEL
        config_echo: dict | str = IDENTITY_MODEL
    else:
        model = load_checkpoint(args.model)
        config_echo = model.config.to_dict()
    records, aggregate = evaluate_model(model, examples, with_irm_oracle=args.with_irm_oracle)
    header = {
        "model": str(args.model),
        "data": str(args.data),
        "with_irm_oracle": bool(args.with_irm_oracle),
        "model_config": config_echo,
    }
    write_eval_report(args.report, header, records, aggregate)
    print(f"mean SDRi {aggregate['mean_sdri_db']:.3f} dB over {aggregate['num_examples']} examples")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="furcasep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    mix = sub.add_parser("mix", help="generate a synthetic corpus")
    mix.add_argument("--out", required=True)
    mix.add_argument("--num", type=int, default=10)
    mix.add_argument("--sources", type=int, default=2)
    mix.add_argument("--duration", type=float, default=1.0)
    mix.add_argument("--snr-min", type=float, default=0.0)
    mix.add_argument("--snr-max", type=float, default=5.0)
    mix.add_argument("--seed", type=int, default=0)
    mix.add_argument("--sample-rate", type=int, default=8000)
    mix.set_defaults(func=cmd_mix)

    tr = sub.add_parser("train", help="train a separation model")
    tr.add_argument("--data", required=True, help="train manifest path")
    tr.add_argument("--dev", required=True, help="dev manifest path")
    tr.add_argument("--config", default=None, help="key = value config file")
    tr.add_argument("--out", required=True)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.set_defaults(func=cmd_train)

    sep = sub.add_parser("separate", help="separate one WAV file")
    sep.add_argument("--model", required=True)
    sep.add_argument("--input", required=True)
    sep.add_argument("--out", required=True)
    sep.set_defaults(func=cmd_separate)

    ev = sub.add_parser("evaluate", help="evaluate a model (or the identity stub) on a corpus")
    ev.add_argument("--model", required=True, help=f"checkpoint path or '{IDENTITY_MODEL}'")
    ev.add_argument("--data", required=True, help="manifest path")
    ev.add_argument("--report", required=True)
    ev.add_argument("--with-irm-oracle", action="store_true")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
