"""Numerics fingerprint of model seed 0 on one desk batch.

The batch is the first 8 train examples of default_desk_corpus(seed=1). The
test checks three things against recorded values: the batch_loss, the norm
of every parameter gradient of that loss, and the per-source norms and end
samples of separate() on the first mixture. The relative tolerance of 1e-12
absorbs BLAS differences between machines; a refactor that keeps the
arithmetic passes unchanged.

A change that moves rounding on purpose (summation order, dtype, a fused
kernel) regenerates the values with

    PYTHONPATH=src python tests/test_fingerprint.py

pastes the printed block over the one below, and says so in CHANGES.md.

The same command also prints one SHA256 line over the exact bytes of the
loss, every gradient (store order) and every separate() output. Tolerances
cannot show a change in the last bit, so a claim that a change keeps the
arithmetic bit for bit is checked by running the command on the parent and on
the change (on the same machine) and comparing that line.

A second block pins what involves no arithmetic beyond the generator's draw:
the SHA-256 of the initial parameter values (float64 little-endian, store
order) for model seeds 0-3, reached through build, FurcaNet and reinit, and
of the seed-0 desk checkpoint file that save_checkpoint writes. These are not
regenerated by a rounding change: a new value means every seed's network or
the v1 file format changed. The command prints them too.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from furcasep import autodiff as ad
from furcasep.corpus import default_desk_corpus, load_corpus
from furcasep.model import FurcaNet, ModelConfig, build, save_checkpoint
from furcasep.training import batch_loss

REL = 1e-12
CORPUS_SEED = 1
BATCH = 8

# --- recorded values (regenerate as described above) ---
BATCH_LOSS = 39.769912070976766
GRAD_NORMS = {
    'gconv1.w': 79.25349598851146,
    'gconv1.b': 62.12712562728218,
    'gconv1.w_gate': 6.670113800512679,
    'gconv1.b_gate': 2.9629526002834314,
    'ln1.gain': 5.346438527258038,
    'ln1.bias': 8.738648408916992,
    'gconv2.w': 59.696223280820476,
    'gconv2.b': 16.855649365091907,
    'gconv2.w_gate': 18.061836137800807,
    'gconv2.b_gate': 2.6787461610878167,
    'ln2.gain': 5.310671413225613,
    'ln2.bias': 10.689889032980226,
    'gconv3.w': 61.05061316192266,
    'gconv3.b': 18.429276125980827,
    'gconv3.w_gate': 18.264014613494464,
    'gconv3.b_gate': 2.5070984329994612,
    'ln3.gain': 5.488173174605963,
    'ln3.bias': 9.883058107563333,
    'gconv4.w': 55.56031958330936,
    'gconv4.b': 18.74441206165676,
    'gconv4.w_gate': 18.643651533750777,
    'gconv4.b_gate': 2.574963841510261,
    'ln4.gain': 5.46396638492309,
    'ln4.bias': 10.598136968547394,
    'gconv5.w': 60.866249286431334,
    'gconv5.b': 21.403275802353054,
    'gconv5.w_gate': 16.761077427958842,
    'gconv5.b_gate': 2.60155481581722,
    'ln5.gain': 5.995919590600868,
    'ln5.bias': 13.726309441835582,
    'bilstm1.fwd.w_in': 44.239032130936536,
    'bilstm1.fwd.w_rec': 18.289303696896056,
    'bilstm1.fwd.b': 18.994159336028282,
    'bilstm1.bwd.w_in': 39.13125313854659,
    'bilstm1.bwd.w_rec': 16.686927689781246,
    'bilstm1.bwd.b': 15.50775358032502,
    'bilstm2.fwd.w_in': 80.15871453400933,
    'bilstm2.fwd.w_rec': 25.006001000504337,
    'bilstm2.fwd.b': 44.98377410879165,
    'bilstm2.bwd.w_in': 75.26199240083604,
    'bilstm2.bwd.w_rec': 24.51229158068071,
    'bilstm2.bwd.b': 42.03173892416798,
    'dnn1.w': 106.5373354747129,
    'dnn1.b': 96.188466803409,
    'dnn2.w': 86.88599042869473,
    'dnn2.b': 185.32691468247444,
    'head.w': 62.71788001278293,
    'head.b': 159.99208663852804,
}
SEPARATE = [
    (0.49358558471392805, 0.02377085591234179, 0.004318555453723902),
    (0.5050899064662049, -0.004564086646297584, 0.0009056928973408774),
]
# --- end of recorded values ---

# --- initial values and checkpoint bytes (never regenerated, see above) ---
INIT_SHA256 = {
    0: 'e89110f6cefe10c306d0e44b594cad066e24f3ba44ab09c8bd4b2f899f6534e9',
    1: '52784d097e92a26ac1f9dfab7aafe8354d90e9059d1a8ba447771b57525ab131',
    2: 'e495eac6e471fc45e22a738902f2f0ae5f96d0968966a141bbc65e822649e701',
    3: '0568dffdd1973e29f4cd7b0ccc3c9ad70b336dd250da5b8d973e0c201ecdb937',
}
CHECKPOINT_SHA256 = '3585812c19854e8d88166292a374914568c5359d6b85cc58b988093fa091512c'


def run(root):
    """The raw arrays: batch loss, {parameter name: gradient}, one separate() output per source."""
    train = load_corpus(default_desk_corpus(root, seed=CORPUS_SEED)["train"].path)[:BATCH]
    model = build(ModelConfig(seed=0))
    loss = batch_loss(model, train)
    ad.backward(loss)
    grads = {name: node.grad for name, node in model.params.items()}
    outputs = [w.samples for w in model.separate(train[0].mixture)]
    return loss.value, grads, outputs


def fingerprint(loss, grads, outputs):
    """(batch loss, {parameter name: gradient norm}, [(norm, first, last) per source])."""
    norms = {name: float(np.linalg.norm(g)) for name, g in grads.items()}
    separate = [(float(np.linalg.norm(y)), float(y[0]), float(y[-1])) for y in outputs]
    return float(loss), norms, separate


def sha256(loss, grads, outputs):
    """Hex SHA-256 over the float64 bytes of the loss, the gradients and the outputs, in that order."""
    digest = hashlib.sha256()
    for array in [loss, *grads.values(), *outputs]:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def init_sha256(model):
    """Hex SHA-256 over the model's parameter values as float64 little-endian, store order."""
    return hashlib.sha256(model.params.flat_values().astype("<f8").tobytes()).hexdigest()


def checkpoint_sha256(root):
    """Hex SHA-256 of the file save_checkpoint writes for the seed-0 desk model."""
    path = Path(root) / "seed0.ckpt"
    save_checkpoint(build(ModelConfig(seed=0)), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return fingerprint(*run(tmp_path_factory.mktemp("fingerprint_corpus")))


def test_batch_loss(measured):
    assert measured[0] == pytest.approx(BATCH_LOSS, rel=REL, abs=0.0)


def test_gradient_norms(measured):
    grads = measured[1]
    assert list(grads) == list(GRAD_NORMS)  # names and store order
    for name, want in GRAD_NORMS.items():
        assert grads[name] == pytest.approx(want, rel=REL, abs=0.0), name


def test_separate_output(measured):
    got = measured[2]
    assert len(got) == len(SEPARATE)
    for (norm, first, last), (want_norm, want_first, want_last) in zip(got, SEPARATE):
        assert norm == pytest.approx(want_norm, rel=REL, abs=0.0)
        # end samples are judged relative to their output's norm
        assert first == pytest.approx(want_first, rel=REL, abs=REL * want_norm)
        assert last == pytest.approx(want_last, rel=REL, abs=REL * want_norm)


@pytest.mark.parametrize("seed", sorted(INIT_SHA256))
def test_initial_values(seed):
    config = ModelConfig(seed=seed)
    assert init_sha256(build(config)) == INIT_SHA256[seed]
    assert init_sha256(FurcaNet(config)) == INIT_SHA256[seed]


def test_reinit_initial_values():
    model = build(ModelConfig(seed=7))
    for seed, want in INIT_SHA256.items():
        model.reinit(seed)
        assert init_sha256(model) == want, seed


def test_checkpoint_bytes(tmp_path):
    assert checkpoint_sha256(tmp_path) == CHECKPOINT_SHA256


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        raw = run(root)
    loss, grads, separate = fingerprint(*raw)
    print(f"BATCH_LOSS = {loss!r}")
    print("GRAD_NORMS = {")
    for name, value in grads.items():
        print(f"    {name!r}: {value!r},")
    print("}")
    print("SEPARATE = [")
    for row in separate:
        print(f"    {row!r},")
    print("]")
    print(f"SHA256 = {sha256(*raw)}")
    print("INIT_SHA256 = {")
    for seed in sorted(INIT_SHA256):
        print(f"    {seed}: {init_sha256(build(ModelConfig(seed=seed)))!r},")
    print("}")
    with tempfile.TemporaryDirectory() as root:
        print(f"CHECKPOINT_SHA256 = {checkpoint_sha256(root)!r}")
