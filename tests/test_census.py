"""Graph census of the fingerprint's desk batch loss: model seed 0 on the first
8 train examples of default_desk_corpus(seed=1).

The test pins the number of graph nodes per op reachable from the loss, the
op calls (autodiff.record) per op that building the loss makes, reachable or
not, the parameter and constant leaves, and bounds two figures under
tracemalloc: the bytes the live graph holds, and the peak of backward() on
that graph, both above the start of the batch loss. Counts are exact. Each
byte bound sits about 0.7 MiB above its measured value (30.8 and 47.1 MiB), so
one more [T*B x 128] float64 array kept alive (1592 x 128 x 8 bytes = 1.55 MiB
at this batch) fails the first, and so does any intermediate value that no
gradient rule reads but the graph still holds; one more such array alive at
backward's peak fails the second.

A change that alters the graph on purpose prints the new table with

    PYTHONPATH=src python tests/test_census.py

pastes it over the block below, and says so in CHANGES.md. A change that
alters it by accident fails here.
"""

import collections
import tracemalloc

import pytest

from furcasep import autodiff as ad
from furcasep.corpus import default_desk_corpus, load_corpus
from furcasep.model import ModelConfig, build
from furcasep.training import batch_loss

CORPUS_SEED = 1
BATCH = 8
MIB = 2**20

# --- recorded census (regenerate as described above) ---
NODES = {
    'mul_scalar': 57,
    'dot': 32,
    'log10': 32,
    'sub': 32,
    'mul': 21,
    'add_scalar': 16,
    'narrow': 16,
    'overlap_add_frames': 16,
    'scale': 16,
    'add': 15,
    'affine': 13,
    'gather_rows': 8,
    'concat': 6,
    'layer_norm_rows': 5,
    'sigmoid': 5,
    'lstm_sequence': 2,
    'relu': 2,
}
CALLS = {
    'mul_scalar': 105,
    'dot': 64,
    'log10': 64,
    'sub': 64,
    'mul': 37,
    'add_scalar': 32,
    'scale': 32,
    'narrow': 16,
    'overlap_add_frames': 16,
    'add': 15,
    'affine': 13,
    'gather_rows': 8,
    'concat': 6,
    'layer_norm_rows': 5,
    'sigmoid': 5,
    'lstm_sequence': 2,
    'relu': 2,
}
PARAMETERS = 48
CONSTANTS = 17
HELD_MIB_BOUND = 31.5  # measured 30.82 MiB
BACKWARD_PEAK_MIB_BOUND = 47.8  # measured 47.12 MiB
# --- end of recorded census ---


def by_count(counter):
    return dict(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


def census(root):
    """({op: interior nodes}, {op: calls}, parameters, constant leaves, MiB the live graph holds,
    MiB backward peaks at) of the desk batch loss; both MiB figures are above the start of batch_loss.
    The calls are every autodiff.record a second, untraced batch loss makes, reachable from its loss or not."""
    train = load_corpus(default_desk_corpus(root, seed=CORPUS_SEED)["train"].path)[:BATCH]
    model = build(ModelConfig(seed=0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = batch_loss(model, train)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        ad.backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    calls = collections.Counter()
    record = ad.record

    def counted(value, op, inputs, rule):
        calls[op] += 1
        return record(value, op, inputs, rule)

    ad.record = counted
    try:
        batch_loss(model, train)
    finally:
        ad.record = record
    order = ad._topo_order(loss)
    nodes = by_count(collections.Counter(node.op for node in order if node.parents))
    parameters = sum(node.trainable for node in order)
    constants = sum(not node.parents and not node.trainable for node in order)
    return nodes, by_count(calls), parameters, constants, held / MIB, backward_peak / MIB


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return census(tmp_path_factory.mktemp("census_corpus"))


def test_nodes_per_op(measured):
    nodes = measured[0]
    assert nodes == NODES
    assert sum(nodes.values()) == 294


def test_op_calls(measured):
    calls = measured[1]
    assert calls == CALLS
    assert sum(calls.values()) == 486


def test_leaves(measured):
    assert measured[2:4] == (PARAMETERS, CONSTANTS)


def test_bytes_held_by_the_live_graph(measured):
    assert measured[4] < HELD_MIB_BOUND


def test_backward_peak(measured):
    assert measured[5] < BACKWARD_PEAK_MIB_BOUND


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        nodes, calls, parameters, constants, held, backward_peak = census(root)
    for name, table in (("NODES", nodes), ("CALLS", calls)):
        print(f"{name} = {{")
        for op, count in table.items():
            print(f"    {op!r}: {count},")
        print("}")
    print(f"PARAMETERS = {parameters}")
    print(f"CONSTANTS = {constants}")
    print(f"# held: {held:.2f} MiB over {sum(nodes.values())} interior nodes of {sum(calls.values())} op calls, "
          f"backward peak: {backward_peak:.2f} MiB; the MiB bounds are set by hand")
