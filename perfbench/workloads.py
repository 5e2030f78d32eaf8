"""The benchmark's three workloads. Why each exists, and what each ROADMAP
item should move on it, is written down in perfbench/README.md.

A workload is driven in four phases by run.py:
- ``setup(dir)``: build its inputs from the seed (timed, repeated);
- ``start()``: a one-off timed part (``train()`` on train_desk);
- ``round()``: one unit of repeated work, returning per-operation seconds;
- ``finish()``: the remaining output checks, and the metrics under the names
  the workload is known by.

Every call goes through a public module attribute of furcasep
(``training.batch_loss``, ``cli.main``, ...), so the tracer in tracing.py sees
it. A failed output check raises CheckFailed and the run reports no numbers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import statistics
import time
from pathlib import Path

import numpy as np

from furcasep import autodiff as ad
from furcasep import cli, corpus, training
from furcasep import model as fmodel
from furcasep import signal as fsignal


class CheckFailed(Exception):
    """An output check failed; the run must not report numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.audio_seconds = 0.0
        self.busy_seconds = 0.0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def start(self) -> None:
        """A one-off timed part before the rounds; none by default."""

    def before_op(self) -> None:
        """Called before each timed operation; the traced run flips tracing here."""

    def audio_s_per_s(self) -> float:
        """Seconds of audio processed per second of timed operations."""
        return self.audio_seconds / self.busy_seconds


def _build_and_save(directory: Path):
    """The seed-0 desk model and the checkpoint it was written to."""
    model = fmodel.build(fmodel.ModelConfig())
    path = directory / "model.ckpt"
    fmodel.save_checkpoint(model, path)
    return model, path


class TrainDesk(Workload):
    """Desk ModelConfig, B=8, 1 s at 8 kHz on default_desk_corpus(seed):
    train() calls of EPOCHS epochs, then rounds that replay the first epoch
    step by step from the same initialisation."""

    name = "train_desk"
    EPOCHS = 1
    RESTART_ATTEMPTS = 4
    # Mean SDR is clamped to +-100 dB, so no initialisation passes this gate
    # and every run makes exactly RESTART_ATTEMPTS dev passes, then re-draws
    # the best one. At the desk gate (-40 dB) the pass or fail outcome depends
    # on the corpus seed (1 to more than 6 attempts), so train() wall time
    # would measure the seed rather than the code.
    GATE_NEVER_PASSES_DB = 1000.0

    def setup(self, directory: Path) -> None:
        manifests = corpus.default_desk_corpus(directory / "corpus", seed=self.seed)
        self.train_set = corpus.load_corpus(manifests["train"].path)
        self.dev_set = corpus.load_corpus(manifests["dev"].path)
        self.model, _ = _build_and_save(directory)
        self.cfg = dataclasses.replace(
            training.desk_train_config(max_epochs=self.EPOCHS, seed=self.seed),
            restart_threshold_db=self.GATE_NEVER_PASSES_DB,
            restart_max_attempts=self.RESTART_ATTEMPTS,
        )
        self.dev_eval_s_per_utt: list[float] = []

    def _train(self, model) -> tuple[training.TrainReport, float]:
        t0 = time.perf_counter()
        report = training.train(model, self.train_set, self.dev_set, self.cfg)
        seconds = time.perf_counter() - t0
        losses = [r.train_loss for r in report.records]
        self.count(all(math.isfinite(x) for x in losses))
        check(all(math.isfinite(x) for x in losses), f"train(): non-finite epoch loss {losses}")
        check(report.restart_attempts == self.RESTART_ATTEMPTS,
              f"train(): {report.restart_attempts} restart attempts, expected {self.RESTART_ATTEMPTS}")
        return report, seconds

    def start(self) -> None:
        """Two train() calls from the same seed-0 model. The first grows the
        process heap to its working size, as the early epochs of a long run
        do, and is the reference the timed second call must repeat exactly."""
        first, _ = self._train(self.model)
        self.model = fmodel.build(fmodel.ModelConfig())
        self.report, self.train_seconds = self._train(self.model)
        check([(r.train_loss, r.dev_loss) for r in self.report.records]
              == [(r.train_loss, r.dev_loss) for r in first.records]
              and self.report.init_seed == first.init_seed,
              "train(): a second call with the same seed gave different losses")
        self.train_loss_db = self.report.records[-1].train_loss
        init = fmodel.FurcaNet(dataclasses.replace(fmodel.ModelConfig(), seed=self.report.init_seed))
        self.init_values = init.params.flat_values()
        # train()'s batch order for epoch 1; a change to it fails the replay check
        self.order = np.random.default_rng((self.cfg.seed, 1)).permutation(len(self.train_set))

    def round(self) -> list[float]:
        """Replay train()'s first epoch from its initialisation; its mean loss
        and dev SDR must equal train()'s bit for bit."""
        params = self.model.params
        params.load_flat_values(self.init_values)
        state = training.AdamState(params, self.cfg.initial_lr)
        bs = self.cfg.batch_size
        samples, losses = [], []
        for start in range(0, len(self.order), bs):
            batch = [self.train_set[i] for i in self.order[start : start + bs]]
            self.before_op()
            t0 = time.perf_counter()
            loss = training.batch_loss(self.model, batch)
            ad.backward(loss)
            training.adam_step(params, state)
            samples.append(time.perf_counter() - t0)
            value = float(loss.value)
            self.count(math.isfinite(value))
            check(math.isfinite(value), f"step {len(losses)}: non-finite loss {value}")
            losses.append(value)
        del loss
        epoch_loss = float(np.mean(losses))
        check(epoch_loss == self.report.records[0].train_loss,
              f"replayed epoch loss {epoch_loss!r} != train() epoch-1 loss {self.report.records[0].train_loss!r}")
        t0 = time.perf_counter()
        dev_sdr = training.mean_dev_sdr(self.model, self.dev_set)
        self.dev_eval_s_per_utt.append((time.perf_counter() - t0) / len(self.dev_set))
        self.count(math.isfinite(dev_sdr))
        check(-dev_sdr == self.report.records[0].dev_loss,
              f"replayed dev SDR {dev_sdr!r} != train() epoch-1 dev SDR {-self.report.records[0].dev_loss!r}")
        return samples

    def audio_s_per_s(self) -> float:
        """Seconds of audio trained per second of the timed train() call."""
        audio = self.EPOCHS * sum(len(e.mixture) / e.mixture.sample_rate_hz for e in self.train_set)
        return audio / self.train_seconds

    def finish(self) -> dict:
        return {
            "train_utt_per_s": (self.EPOCHS * len(self.train_set) / self.train_seconds, "1/s"),
            "dev_eval_ms_per_utt": (1000.0 * statistics.median(self.dev_eval_s_per_utt), "ms"),
            "train_loss_db": (self.train_loss_db, "dB"),
            "restart_attempts": (self.report.restart_attempts, "count"),
        }


class SeparateLong(Workload):
    """In-process ``cli.main(["separate", ...])`` on a seed-0 checkpoint.
    Each round separates one mixture per CYCLE entry, generated from the seed."""

    name = "separate_long"
    # Seconds per mixture, in call order: mostly 1 s calls, where per-call
    # costs dominate, and a few long ones, where the per-step LSTM loop and
    # the per-frame loops dominate. The order is fixed so that the heap, and
    # so peak RSS, evolves the same way for every seed.
    CYCLE = (1, 1, 1, 4, 1, 1, 1, 16, 1, 1, 4, 1)

    def setup(self, directory: Path) -> None:
        _, self.checkpoint = _build_and_save(directory)
        by_length = {}
        for seconds in sorted(set(self.CYCLE)):
            manifest = corpus.generate_corpus(
                self.CYCLE.count(seconds), 2, float(seconds), 0.0, 5.0, self.seed * 100 + seconds,
                directory / f"mix_{seconds}s",
            )
            examples = corpus.load_corpus(manifest.path)
            by_length[seconds] = [(manifest.root / r.mixture_path, e.mixture)
                                  for r, e in zip(manifest.records, examples)]
        self.inputs = [by_length[seconds].pop() for seconds in self.CYCLE]  # (path, mixture)
        self.out_dir = directory / "out"
        self.ref_dir = directory / "ref"
        self.ref_dir.mkdir()
        self.checked: set[int] = set()
        self.num_sources = fmodel.ModelConfig().num_sources

    def round(self) -> list[float]:
        samples = []
        for index, (path, mixture) in enumerate(self.inputs):
            argv = ["separate", "--model", str(self.checkpoint), "--input", str(path), "--out", str(self.out_dir)]
            stdout = io.StringIO()
            self.before_op()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                status = cli.main(argv)
            elapsed = time.perf_counter() - t0
            samples.append(elapsed)
            self.busy_seconds += elapsed
            self.audio_seconds += mixture.duration_s
            outputs_ok = status == 0 and self._outputs_ok(path, mixture)
            self.count(outputs_ok)
            check(status == 0, f"separate {path.name}: exit status {status}")
            check(outputs_ok, f"separate {path.name}: missing, wrong-length or non-finite output WAVs")
            check(stdout.getvalue().strip() == str(self.out_dir), f"separate {path.name}: printed {stdout.getvalue()!r}")
            if index not in self.checked:
                self._check_against_model(path, mixture)
                self.checked.add(index)
        return samples

    def _outputs(self, directory: Path, path: Path) -> list[Path]:
        return [directory / f"{path.stem}.s{i}.wav" for i in range(1, self.num_sources + 1)]

    def _outputs_ok(self, path: Path, mixture) -> bool:
        for out in self._outputs(self.out_dir, path):
            if not out.is_file():
                return False
            wave = fsignal.read_wav(out)
            if (len(wave) != len(mixture) or wave.sample_rate_hz != mixture.sample_rate_hz
                    or not np.all(np.isfinite(wave.samples))):
                return False
        return True

    def _check_against_model(self, path: Path, mixture) -> None:
        """The CLI's WAVs equal an in-process separate() written the same way."""
        estimates = fmodel.load_checkpoint(self.checkpoint).separate(mixture)
        for estimate, ref, out in zip(estimates, self._outputs(self.ref_dir, path), self._outputs(self.out_dir, path)):
            fsignal.write_wav(estimate, ref)
            check(np.array_equal(fsignal.read_wav(ref).samples, fsignal.read_wav(out).samples),
                  f"separate {path.name}: CLI output differs from in-process separate()")

    def finish(self) -> dict:
        return {"separate_rtf": (self.busy_seconds / self.audio_seconds, "ratio")}


class EvalOracle(Workload):
    """``cli.evaluate_model(model, ..., with_irm_oracle=True)`` on the
    40-utterance desk test split of default_desk_corpus(seed) with a seed-0
    checkpoint, one utterance per call; the whole-split call and the identity
    stub are checks."""

    name = "eval_oracle"

    def setup(self, directory: Path) -> None:
        manifests = corpus.default_desk_corpus(directory / "corpus", seed=self.seed)
        self.test_set = sorted(corpus.load_corpus(manifests["test"].path), key=lambda e: e.example_id)
        self.model = fmodel.load_checkpoint(_build_and_save(directory)[1])
        self.first_pass: list[dict] = []
        self.passes = 0

    def round(self) -> list[float]:
        samples = []
        for position, example in enumerate(self.test_set):
            self.before_op()
            t0 = time.perf_counter()
            records, aggregate = cli.evaluate_model(self.model, [example], with_irm_oracle=True)
            elapsed = time.perf_counter() - t0
            samples.append(elapsed)
            self.busy_seconds += elapsed
            self.audio_seconds += example.mixture.duration_s
            record = records[0]
            finite = math.isfinite(record["sdri_db"]) and math.isfinite(record["irm_sdri_db"])
            self.count(finite)
            check(finite, f"{example.example_id}: non-finite SDRi {record}")
            check(aggregate["mean_sdri_db"] == record["sdri_db"]
                  and aggregate["mean_irm_sdri_db"] == record["irm_sdri_db"],
                  f"{example.example_id}: aggregate {aggregate} does not re-derive from {record}")
            if self.passes == 0:
                self.first_pass.append(record)
            else:
                check(record == self.first_pass[position], f"{example.example_id}: record changed between passes")
        self.passes += 1
        return samples

    def finish(self) -> dict:
        records, aggregate = cli.evaluate_model(self.model, self.test_set, with_irm_oracle=True)
        check(records == self.first_pass, "whole-split records differ from the per-utterance records")
        sdris = [r["sdri_db"] for r in records]
        check(aggregate["num_examples"] == len(self.test_set)
              and aggregate["mean_sdri_db"] == float(np.mean(sdris))
              and aggregate["median_sdri_db"] == float(np.median(sdris))
              and aggregate["mean_irm_sdri_db"] == float(np.mean([r["irm_sdri_db"] for r in records])),
              f"aggregate {aggregate} does not re-derive from its records")
        stub_records, stub_aggregate = cli.evaluate_model(cli.IDENTITY_MODEL, self.test_set)
        check(all(r["sdri_db"] == 0.0 for r in stub_records) and stub_aggregate["mean_sdri_db"] == 0.0,
              "identity stub does not score exactly 0 dB SDRi")
        return {
            "eval_utt_per_s": (self.audio_s_per_s(), "1/s"),
            "eval_sdri_db": (aggregate["mean_sdri_db"], "dB"),
            "irm_sdri_db": (aggregate["mean_irm_sdri_db"], "dB"),
        }


WORKLOADS = {w.name: w for w in (TrainDesk, SeparateLong, EvalOracle)}
