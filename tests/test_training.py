import dataclasses
import json
import weakref

import numpy as np
import pytest

from furcasep import autodiff as ad
from furcasep import training
from furcasep.autodiff import ParamStore, backward
from furcasep.corpus import MixtureExample
from furcasep.metrics import pit_assign
from furcasep.model import ModelConfig, build, load_checkpoint
from furcasep.signal import Waveform, mix_sum
from furcasep.training import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_loss,
    initial_sdr_sweep,
    mean_dev_sdr,
    next_learning_rate,
    train,
)

TINY = ModelConfig(
    frame_len=16,
    hop=8,
    gconv_layers=2,
    gconv_channels=4,
    bilstm_layers=1,
    bilstm_hidden=4,
    dnn_layers=1,
    dnn_width=8,
    seed=0,
)


def toy_examples(count, seed, n=64):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        base = np.sin(2 * np.pi * (4 + i) * np.arange(n) / n + rng.uniform(0, 6))
        other = np.sin(2 * np.pi * (11 + 2 * i) * np.arange(n) / n + rng.uniform(0, 6))
        s1 = Waveform(0.4 * base + 0.02 * rng.normal(size=n), 8000)
        s2 = Waveform(0.4 * other + 0.02 * rng.normal(size=n), 8000)
        out.append(MixtureExample(mix_sum([s1, s2]), [s1, s2], 0.0, f"toy{i:03d}", i))
    return out


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        store = ParamStore()
        w = store.add("w", np.array(5.0))
        w.grad = np.array(1.0)
        state = AdamState(store, learning_rate=0.01)
        adam_step(store, state)
        assert float(w.value) == pytest.approx(5.0 - 0.01, rel=1e-6)
        assert state.step_count == 1
        assert w.grad is None  # cleared

    def test_zero_gradient_leaves_parameter(self):
        store = ParamStore()
        w = store.add("w", np.array([1.0, -2.0]))
        w.grad = np.zeros(2)
        adam_step(store, AdamState(store, 0.1))
        assert np.array_equal(w.value, [1.0, -2.0])

    def test_missing_gradient_rejected(self):
        # rejected before anything is written
        store = ParamStore()
        a = store.add("a", np.array([1.0, -2.0]))
        b = store.add("b", np.array([[0.5], [3.0]]))
        state = AdamState(store, 0.1)
        a.grad, b.grad = np.array([0.3, -0.7]), np.array([[2.0], [-1.0]])
        adam_step(store, state)  # moments and step count away from their initial values
        values, m, v = store.flat_values(), state.m.copy(), state.v.copy()
        a.grad = np.array([5.0, 6.0])  # b has none
        with pytest.raises(ValueError, match="parameter 'b' has no gradient"):
            adam_step(store, state)
        assert np.array_equal(store.values, values)
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert state.step_count == 1

    def test_ten_steps_match_reference_loop(self):
        # independent hand-rolled Adam on f(theta) = (theta - 3)^2 from theta = 0
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta, m, v = 0.0, 0.0, 0.0
        reference = []
        for t in range(1, 11):
            g = 2.0 * (theta - 3.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            reference.append(theta)

        store = ParamStore()
        w = store.add("theta", np.array(0.0))
        state = AdamState(store, lr)
        got = []
        for _ in range(10):
            loss = ad.mul(ad.add_scalar(w, -3.0), ad.add_scalar(w, -3.0))
            backward(loss)
            adam_step(store, state)
            got.append(float(w.value))
        assert np.max(np.abs(np.array(got) - np.array(reference))) < 1e-12


class TestSchedule:
    def test_halves_exactly_on_dev_increase(self):
        # scripted fake dev-loss sequence
        seq = [5.0, 4.0, 4.5, 3.0, 3.0, 3.1]
        lr = 0.001
        lrs = []
        prev = None
        for dev in seq:
            lrs.append(lr)
            lr = next_learning_rate(lr, prev, dev, 0.5)
            prev = dev
        # increases at steps 3 (4.5 > 4.0) and 6 (3.1 > 3.0); equal value does not halve
        assert lrs == [0.001, 0.001, 0.001, 0.0005, 0.0005, 0.0005]
        assert lr == 0.00025

    def test_first_epoch_never_halves(self):
        assert next_learning_rate(0.001, None, 99.0, 0.5) == 0.001


class TestDevCheck:
    # train()'s restart gate: an initial dev SDR at or above restart_threshold_db passes

    def test_zero_output_model_fails_threshold(self):
        dev = toy_examples(3, 0)
        model = build(TINY)
        model.params.load_flat_values(np.zeros(model.param_count))
        assert mean_dev_sdr(model, dev) == -100.0
        cfg = TrainConfig(max_epochs=1, batch_size=3, restart_threshold_db=-30.0, restart_max_attempts=1)
        report = train(model, dev, dev, cfg)
        assert not report.restart_passed
        assert report.init_dev_sdr_db == -100.0

    def test_vacuous_threshold_always_passes(self):
        dev = toy_examples(3, 1)
        initial = mean_dev_sdr(build(TINY), dev)
        for threshold in (-1000.0, initial):  # the gate is >=, so its own score passes too
            cfg = TrainConfig(max_epochs=1, batch_size=3, restart_threshold_db=threshold)
            report = train(build(TINY), dev, dev, cfg)
            assert report.restart_passed and report.restart_attempts == 1
            assert report.init_dev_sdr_db == initial

    def test_deterministic_per_seed(self):
        dev = toy_examples(4, 2)
        sweep1 = initial_sdr_sweep(TINY, dev, seeds=range(5))
        sweep2 = initial_sdr_sweep(TINY, dev, seeds=range(5))
        assert sweep1 == sweep2
        assert len({r["mean_sdr_db"] for r in sweep1}) > 1  # seeds actually differ

    def test_mean_dev_sdr_equals_grad_mode_scoring(self):
        model = build(TINY)
        short, long = toy_examples(training._EVAL_CHUNK + 2, 6, n=64), toy_examples(3, 7, n=96)
        dev = list(short)
        for pos, example in zip((1, 10, 20), long):  # interleaved, one past the chunk boundary
            dev.insert(pos, example)
        score = {}
        # mean_dev_sdr batches equal-length examples, at most _EVAL_CHUNK at a time
        for group in (short[: training._EVAL_CHUNK], short[training._EVAL_CHUNK :], long):
            batched = model.forward_batch([e.mixture for e in group])
            for example, outs in zip(group, batched):
                score[id(example)] = pit_assign(example.sources, [o.value for o in outs]).mean_sdr_db
        total = 0.0
        for example in dev:  # summed in dev-set order
            total += score[id(example)]
        assert mean_dev_sdr(model, dev) == total / len(dev)
        assert ad.grad_enabled()

    def test_empty_dev_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_dev_sdr(build(TINY), [])


class TestBatchLoss:
    def test_batch_gradient_is_mean_of_per_example_gradients(self):
        examples = toy_examples(2, 3)
        model = build(TINY)

        per_example = []
        for ex in examples:
            model.params.zero_grad()
            backward(batch_loss(model, [ex]))
            per_example.append(
                np.concatenate([n.grad.reshape(-1) for n in model.params.nodes()])
            )
        model.params.zero_grad()
        backward(batch_loss(model, examples))
        got = np.concatenate([n.grad.reshape(-1) for n in model.params.nodes()])
        want = (per_example[0] + per_example[1]) / 2.0
        assert np.max(np.abs(got - want)) < 1e-12
        model.params.zero_grad()

    def test_mixed_lengths_grouped(self):
        a = toy_examples(2, 4, n=64)
        b = toy_examples(2, 5, n=96)
        batch = [a[0], b[0], a[1], b[1]]
        model = build(TINY)
        loss = batch_loss(model, batch)
        assert loss.value.shape == ()
        per_example = [float(batch_loss(model, [e]).value) for e in batch]
        assert abs(float(loss.value) - np.mean(per_example)) < 1e-12


class TestTrain:
    def test_report_is_deterministic_across_runs(self, tmp_path):
        train_set = toy_examples(6, 6)
        dev_set = toy_examples(2, 7)
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=9, restart_threshold_db=-1000.0)

        def run():
            model = build(TINY)
            report = train(model, train_set, dev_set, cfg)
            return report, model.params.flat_values().copy()

        r1, p1 = run()
        r2, p2 = run()
        assert [(e.epoch, e.train_loss, e.dev_loss, e.learning_rate) for e in r1.records] == [
            (e.epoch, e.train_loss, e.dev_loss, e.learning_rate) for e in r2.records
        ]
        assert (r1.restart_attempts, r1.init_seed, r1.best_epoch) == (
            r2.restart_attempts,
            r2.init_seed,
            r2.best_epoch,
        )
        assert np.array_equal(p1, p2)

    def test_learning_rate_non_increasing_and_factor_of_decay(self):
        train_set = toy_examples(6, 8)
        dev_set = toy_examples(2, 9)
        cfg = TrainConfig(max_epochs=6, batch_size=3, seed=1, restart_threshold_db=-1000.0)
        report = train(build(TINY), train_set, dev_set, cfg)
        lrs = [r.learning_rate for r in report.records]
        for prev, cur in zip(lrs, lrs[1:]):
            assert cur <= prev
            ratio = cur / prev
            assert ratio in (1.0, 0.5) or ratio == pytest.approx(0.5, abs=1e-12)

    def test_restart_bounded_and_best_attempt_used(self):
        train_set = toy_examples(4, 10)
        dev_set = toy_examples(2, 11)
        cfg = TrainConfig(max_epochs=1, batch_size=2, seed=2,
                          restart_threshold_db=1000.0, restart_max_attempts=4)
        model = build(dataclasses.replace(TINY, seed=20))
        report = train(model, train_set, dev_set, cfg)
        assert report.restart_attempts == 4
        assert not report.restart_passed
        assert 20 <= report.init_seed < 24  # best of the attempted seeds

    def test_restart_passes_immediately_with_low_threshold(self):
        train_set = toy_examples(4, 12)
        dev_set = toy_examples(2, 13)
        cfg = TrainConfig(max_epochs=1, batch_size=2, seed=3, restart_threshold_db=-1000.0)
        report = train(build(TINY), train_set, dev_set, cfg)
        assert report.restart_attempts == 1
        assert report.restart_passed

    def test_best_dev_checkpoint_written_and_reproducible(self, tmp_path):
        train_set = toy_examples(6, 14)
        dev_set = toy_examples(2, 15)
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=4, restart_threshold_db=-1000.0)
        model = build(TINY)
        report = train(model, train_set, dev_set, cfg, out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        assert np.array_equal(loaded.params.flat_values(), model.params.flat_values())
        # restored parameters reproduce the recorded best dev loss
        assert -mean_dev_sdr(loaded, dev_set) == pytest.approx(report.best_dev_loss, abs=1e-12)
        log_lines = [json.loads(line) for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert log_lines[0]["kind"] == "train_meta"
        assert sum(1 for line in log_lines if line["kind"] == "epoch") == 3
        assert log_lines[-1]["kind"] == "train_summary"

    def test_source_count_mismatch_rejected(self):
        bad = toy_examples(2, 16)
        bad[0] = MixtureExample(bad[0].mixture, bad[0].sources * 2, 0.0, "bad", 0)
        with pytest.raises(ValueError, match="sources"):
            train(build(TINY), bad, bad, TrainConfig(max_epochs=1))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(build(TINY), [], toy_examples(1, 17), TrainConfig(max_epochs=1))


def script_dev_sdr(monkeypatch, scores):
    """Make train() see the given dev SDRs, in call order (restart gate first);
    returns the parameter values each call saw."""
    scores = iter(scores)
    seen = []

    def scripted(model, dev_set):
        seen.append(model.params.flat_values().copy())
        return next(scores)

    monkeypatch.setattr(training, "mean_dev_sdr", scripted)
    return seen


class TestTrainContract:
    def test_previous_step_graph_freed_before_next_batch_loss(self, monkeypatch):
        real = training.batch_loss
        losses = []

        def tracked(model, batch):
            assert all(ref() is None for ref in losses), "an earlier step's loss graph is still alive"
            loss = real(model, batch)
            losses.append(weakref.ref(loss))
            return loss

        monkeypatch.setattr(training, "batch_loss", tracked)
        cfg = TrainConfig(max_epochs=2, batch_size=2, seed=5, restart_threshold_db=-1000.0)
        train(build(TINY), toy_examples(6, 18), toy_examples(2, 19), cfg)
        assert len(losses) == 6

    def test_best_epoch_before_last_is_restored(self, monkeypatch):
        # gate, then epochs 1-3 with dev losses 5, 2, 4: epoch 2 is best
        seen = script_dev_sdr(monkeypatch, [0.0, -5.0, -2.0, -4.0])
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=6, restart_threshold_db=-1000.0)
        model = build(TINY)
        report = train(model, toy_examples(6, 20), toy_examples(2, 21), cfg)
        assert (report.best_epoch, report.best_dev_loss) == (2, 2.0)
        assert np.array_equal(model.params.flat_values(), seen[2])
        assert not np.array_equal(seen[2], seen[3])

    def test_best_dev_tie_keeps_earlier_epoch(self, monkeypatch):
        # gate, then epochs 1-3 with dev losses 5, 2, 2: epoch 3 only ties epoch 2
        seen = script_dev_sdr(monkeypatch, [0.0, -5.0, -2.0, -2.0])
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=6, restart_threshold_db=-1000.0)
        model = build(TINY)
        report = train(model, toy_examples(6, 20), toy_examples(2, 21), cfg)
        assert report.best_epoch == 2
        assert np.array_equal(model.params.flat_values(), seen[2])

    def test_epoch_order_follows_seed_and_epoch(self, monkeypatch):
        real = training.batch_loss
        batches = []

        def recording(model, batch):
            batches.append([e.example_id for e in batch])
            return real(model, batch)

        monkeypatch.setattr(training, "batch_loss", recording)
        train_set = toy_examples(6, 22)
        cfg = TrainConfig(max_epochs=2, batch_size=2, seed=7, restart_threshold_db=-1000.0)
        train(build(TINY), train_set, toy_examples(2, 23), cfg)
        orders = [np.random.default_rng((7, epoch)).permutation(6) for epoch in (1, 2)]
        assert not np.array_equal(orders[0], orders[1])
        want = [[train_set[i].example_id for i in order[k : k + 2]] for order in orders for k in (0, 2, 4)]
        assert batches == want

    def test_non_finite_loss_raises_before_any_update(self):
        # one NaN sample in one training mixture makes the first step's loss
        # NaN; train() stops there, naming the epoch and step, and Adam never
        # touches the parameters of the gate's chosen initialisation
        train_set = toy_examples(4, 26)
        bad = train_set[2]
        samples = bad.mixture.samples.copy()
        samples[10] = np.nan
        train_set[2] = dataclasses.replace(bad, mixture=Waveform(samples, bad.mixture.sample_rate_hz))
        cfg = TrainConfig(max_epochs=2, batch_size=4, seed=9, restart_threshold_db=-1000.0)
        model = build(TINY)
        init = model.params.flat_values().copy()
        with pytest.raises(FloatingPointError, match="epoch 1, step 1"):
            train(model, train_set, toy_examples(2, 27), cfg)
        assert np.array_equal(model.params.flat_values(), init)
        assert all(node.grad is None for node in model.params.nodes())

    def test_log_values_match_report(self, monkeypatch, tmp_path):
        # dev losses 5, 2, 4, 3: the rate decays once (after epoch 3), epoch 2 is best
        script_dev_sdr(monkeypatch, [0.0, -5.0, -2.0, -4.0, -3.0])
        cfg = TrainConfig(max_epochs=4, batch_size=2, seed=8, restart_threshold_db=-1000.0)
        report = train(build(dataclasses.replace(TINY, seed=5)), toy_examples(6, 24), toy_examples(2, 25),
                       cfg, out_dir=tmp_path)
        lines = [json.loads(line) for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert report.init_seed == 5
        assert [r.learning_rate for r in report.records] == [0.001, 0.001, 0.001, 0.0005]
        assert report.best_epoch == 2
        assert lines[0] == {
            "kind": "train_meta",
            "restart_attempts": report.restart_attempts,
            "restart_passed": report.restart_passed,
            "init_seed": report.init_seed,
            "init_dev_sdr_db": report.init_dev_sdr_db,
        }
        assert lines[1:-1] == [{"kind": "epoch", **dataclasses.asdict(r)} for r in report.records]
        assert lines[-1] == {
            "kind": "train_summary",
            "best_epoch": report.best_epoch,
            "best_dev_loss": report.best_dev_loss,
        }
