"""Adam on the utterance-SDR loss: the random-restart initialization trick,
mini-batch training, dev-driven learning-rate halving, and best-dev
checkpointing. Everything is deterministic given the seeds.

Training batches and dev scoring share one grouping, _length_groups:
equal-length examples go through the network as one forward_batch, lengths
in first-seen order and examples in set order, and every result maps back
to its example's position in the set.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import ParamStore
from .corpus import write_jsonl
from .metrics import pit_assign
from .model import FurcaNet, save_checkpoint


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = 0.001
    lr_decay: float = 0.5
    batch_size: int = 8
    max_epochs: int = 30
    restart_threshold_db: float = -30.0
    restart_max_attempts: int = 50
    seed: int = 0

    def validate(self) -> None:
        if not (0.0 < self.lr_decay < 1.0):
            raise ValueError(f"lr_decay must be in (0, 1), got {self.lr_decay}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.restart_max_attempts < 1:
            raise ValueError("batch_size, max_epochs, restart_max_attempts must be positive")
        if self.initial_lr <= 0:
            raise ValueError(f"initial_lr must be positive, got {self.initial_lr}")


def desk_train_config(max_epochs: int = 100, seed: int = 0) -> TrainConfig:
    """The schedule that works at desk scale: a 0.5 decay cascades to a frozen
    learning rate on small-corpus dev noise, and fresh inits score ~-37 dB dev
    SDR, so the gate sits at -40 instead of -30."""
    return TrainConfig(
        lr_decay=0.9,
        max_epochs=max_epochs,
        restart_threshold_db=-40.0,
        seed=seed,
    )


ADAM_BETA1 = 0.9  # first-moment decay
ADAM_BETA2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8  # update denominator guard


class AdamState:
    """Moments laid out like ParamStore.values, the step count, and two scratch vectors."""

    def __init__(self, params: ParamStore, learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = np.zeros(params.total_size)
        self.v = np.zeros(params.total_size)
        self.grad = np.empty(params.total_size)
        self.scratch = np.empty(params.total_size)


def adam_step(params: ParamStore, state: AdamState) -> None:
    """Bias-corrected Adam, value -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in place over the
    flat vectors, elementwise in that order; gradients are cleared afterwards."""
    for name, node in params.items():
        if node.grad is None:
            raise ValueError(f"adam_step: parameter '{name}' has no gradient")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    g, s, m, v, values = state.grad, state.scratch, state.m, state.v, params.values
    np.concatenate([node.grad for node in params.nodes()], axis=None, out=g)
    m *= ADAM_BETA1  # m = b1 m + (1 - b1) g
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    v *= ADAM_BETA2  # v = b2 v + (1 - b2) g g
    np.multiply(g, 1.0 - ADAM_BETA2, out=s)
    v += np.multiply(s, g, out=s)
    np.divide(m, bc1, out=s)  # the update in s, its denominator in g, which the moments no longer need
    s *= state.learning_rate
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPS
    s /= g
    values -= s
    params.zero_grad()


_EVAL_CHUNK = 16  # forward_batch size during evaluation


def _length_groups(examples, chunk_size: int):
    """Yield lists of positions in examples: equal-length examples, lengths in
    first-seen order, each length's positions in order, cut into chunks of at
    most chunk_size."""
    by_length: dict[int, list[int]] = {}
    for pos, example in enumerate(examples):
        by_length.setdefault(len(example.mixture), []).append(pos)
    for positions in by_length.values():
        for start in range(0, len(positions), chunk_size):
            yield positions[start : start + chunk_size]


def mean_dev_sdr(model: FurcaNet, dev_set) -> float:
    """Mean best-permutation SDR over a dev set (metrics path, forward under no_grad).

    Summation order is fixed (dev-set order) for determinism.
    """
    if not dev_set:
        raise ValueError("empty dev set")
    scores = np.empty(len(dev_set))
    for chunk in _length_groups(dev_set, _EVAL_CHUNK):
        with ad.no_grad():
            batched = model.forward_batch([dev_set[pos].mixture for pos in chunk])
        for pos, outs in zip(chunk, batched):
            estimates = [o.value for o in outs]
            scores[pos] = pit_assign(dev_set[pos].sources, estimates).mean_sdr_db
    total = 0.0
    for value in scores:
        total += value
    return total / len(dev_set)


def next_learning_rate(lr: float, prev_dev_loss: float | None, dev_loss: float, decay: float) -> float:
    """Decay exactly when the dev loss increased relative to the previous epoch."""
    if prev_dev_loss is not None and dev_loss > prev_dev_loss:
        return lr * decay
    return lr


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_loss: float
    learning_rate: float
    wall_time_s: float


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    restart_attempts: int = 0
    restart_passed: bool = False
    init_seed: int = 0
    init_dev_sdr_db: float = 0.0
    best_epoch: int = 0
    best_dev_loss: float = float("inf")

    def write_log(self, path) -> None:
        """Line-delimited JSON: one train_meta line, one line per epoch, one summary line."""
        meta = {
            "kind": "train_meta",
            "restart_attempts": self.restart_attempts,
            "restart_passed": self.restart_passed,
            "init_seed": self.init_seed,
            "init_dev_sdr_db": self.init_dev_sdr_db,
        }
        epochs = ({
            "kind": "epoch",
            "epoch": r.epoch,
            "train_loss": r.train_loss,
            "dev_loss": r.dev_loss,
            "learning_rate": r.learning_rate,
            "wall_time_s": r.wall_time_s,
        } for r in self.records)
        summary = {
            "kind": "train_summary",
            "best_epoch": self.best_epoch,
            "best_dev_loss": self.best_dev_loss,
        }
        write_jsonl(path, [meta, *epochs, summary])


def batch_loss(model: FurcaNet, batch) -> ad.Node:
    """Average of per-utterance losses; equal-length utterances share one batched graph."""
    loss_nodes = []
    for chunk in _length_groups(batch, len(batch)):  # one chunk per length
        group = [batch[pos] for pos in chunk]
        outputs = model.forward_batch([e.mixture for e in group])
        for example, outs in zip(group, outputs):
            loss_nodes.append(ly.usdr_loss([s.samples for s in example.sources], outs))
    total = loss_nodes[0]
    for node in loss_nodes[1:]:
        total = ad.add(total, node)
    return ad.mul_scalar(total, 1.0 / len(batch))


def train(model: FurcaNet, train_set, dev_set, cfg: TrainConfig, out_dir=None) -> TrainReport:
    """Restart until the init gate passes, then Adam with dev-driven LR halving.

    A non-finite training loss raises FloatingPointError, naming the epoch
    and the step (from 1), before that step's backward pass and Adam update.
    The best-dev parameters are restored into the model at the end. With
    out_dir set, a checkpoint (model.ckpt) and a JSONL log (train_log.jsonl)
    are written there.
    """
    cfg.validate()
    if not train_set or not dev_set:
        raise ValueError("train: empty corpus")
    for example in list(train_set) + list(dev_set):
        if len(example.sources) != model.config.num_sources:
            raise ValueError(
                f"example {example.example_id}: {len(example.sources)} sources, "
                f"model expects {model.config.num_sources}"
            )
    report = TrainReport()
    base_seed = model.config.seed
    best_attempt = (-np.inf, base_seed)
    for attempt in range(cfg.restart_max_attempts):
        seed_k = base_seed + attempt
        if attempt > 0:
            model.reinit(seed_k)
        report.restart_attempts = attempt + 1
        mean_sdr = mean_dev_sdr(model, dev_set)
        if mean_sdr > best_attempt[0]:
            best_attempt = (mean_sdr, seed_k)
        if mean_sdr >= cfg.restart_threshold_db:  # the restart trick's gate
            report.restart_passed = True
            report.init_seed = seed_k
            report.init_dev_sdr_db = mean_sdr
            break
    if not report.restart_passed:
        # none passed: proceed with the best-scoring attempt
        report.init_dev_sdr_db, report.init_seed = best_attempt
        model.reinit(report.init_seed)

    state = AdamState(model.params, cfg.initial_lr)
    lr = cfg.initial_lr
    prev_dev_loss = None
    best_values = model.params.flat_values()
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_set))
        losses = []
        for step, start in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = [train_set[i] for i in order[start : start + cfg.batch_size]]
            loss = batch_loss(model, batch)
            if not np.isfinite(loss.value):  # an Adam step on it would poison every parameter and moment
                raise FloatingPointError(f"train: non-finite loss {float(loss.value)} at epoch {epoch}, step {step}")
            ad.backward(loss)
            losses.append(float(loss.value))
            del loss  # its tape holds every array the rules captured; free it before the next graph
            state.learning_rate = lr
            adam_step(model.params, state)
        dev_loss = -mean_dev_sdr(model, dev_set)
        report.records.append(EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            dev_loss=dev_loss,
            learning_rate=lr,
            wall_time_s=time.perf_counter() - t0,
        ))
        if dev_loss < report.best_dev_loss:
            report.best_dev_loss = dev_loss
            report.best_epoch = epoch
            best_values = model.params.flat_values()
        lr = next_learning_rate(lr, prev_dev_loss, dev_loss, cfg.lr_decay)
        prev_dev_loss = dev_loss
    model.params.load_flat_values(best_values)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, out_dir / "model.ckpt")
        report.write_log(out_dir / "train_log.jsonl")
    return report


def initial_sdr_sweep(config, dev_set, seeds) -> list[dict]:
    """Initial (untrained) dev SDR for each seed; the restart trick's evidence base."""
    results = []
    for seed in seeds:
        model = FurcaNet(dataclasses.replace(config, seed=int(seed)))
        results.append({"seed": int(seed), "mean_sdr_db": mean_dev_sdr(model, dev_set)})
    return results
