"""Reverse-mode automatic differentiation over dense float64 numpy tensors.

Eager forward, taped backward: every operation computes its value immediately
and records a tape entry whose rule routes the output gradient to its inputs.
The op returns a Node that holds the value and points to that entry; the
entries link to each other and hold no values. A rule captures the arrays it
reads, never an input Node, so the graph keeps the parameters, the constants
and what the rules read, and an intermediate value that no rule reads is
freed as soon as the caller drops its Node. backward() releases each interior
gradient as soon as it has been routed, so interior gradients are transient
and only parameters keep a .grad afterwards. Inside no_grad() no entry is
made, so a forward-only pass frees each intermediate as soon as the next
operation has used it. Scalars are 0-d arrays. There is no implicit
broadcasting; shapes must match exactly except where an operation is
explicitly defined otherwise (affine's bias, scale, the *_scalar helpers).
"""

from __future__ import annotations

import contextlib
import weakref

import numpy as np

Tensor = np.ndarray  # always float64, row-major

_check_finite = False
_grad_enabled = True


def set_check_finite(enabled: bool) -> None:
    """Toggle NaN/Inf detection on every op result (debug mode, default off)."""
    global _check_finite
    _check_finite = bool(enabled)


def grad_enabled() -> bool:
    """False inside no_grad(): op results get no tape entry and no gradient rule."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: op results are detached constants.

    Values are the same as in grad mode, bit for bit. The previous state is
    restored on exit, also when the block raises, so blocks nest. The switch
    is process-wide, not per thread.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def as_tensor(x) -> Tensor:
    return np.asarray(x, dtype=np.float64)


def sigmoid_of_negated(z: np.ndarray) -> np.ndarray:
    """Overwrite z = -x with sigmoid(x) = 1 / (1 + exp(-x)) and return it.

    This is the one sigmoid: the sigmoid op and lstm_sequence's gates use it.
    For x below about -709 exp overflows to inf and the result is 1/inf = 0,
    the exact limit, so callers run it under np.errstate(over="ignore").
    """
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


class TapeEntry:
    """One entry of the gradient tape, the graph that backward() walks.

    An entry holds links and never a value: parents (the entries of the op's
    inputs), _backward (the rule that routes this entry's gradient to them),
    grad (the gradient, while backward() runs), op (the op's name) and
    trainable.
    """

    __slots__ = ("grad", "parents", "op", "trainable", "_backward", "__weakref__")

    def __init__(self, parents=(), op="leaf", trainable=False):
        self.grad = None
        self.parents = parents
        self.op = op
        self.trainable = trainable
        self._backward = None

    @property
    def needs_grad(self) -> bool:
        """Parameters and interior entries receive gradients, plain constants do not.

        A parameter keeps its gradient after backward(); an interior entry's is
        transient and released once its rule has run.
        """
        return self.trainable or bool(self.parents)

    def accumulate_grad(self, g, own: bool = False) -> None:
        """Add g into this entry's gradient. own=True donates a fresh buffer
        that no other entry references, avoiding a copy."""
        if self.grad is None:
            self.grad = g if own else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self):
        return f"TapeEntry(op={self.op!r}, parents={len(self.parents)}, trainable={self.trainable})"


def _checked(value, op) -> Tensor:
    value = as_tensor(value)
    if _check_finite and not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite values in '{op}' result")
    return value


class Node(TapeEntry):
    """A value in the computation graph, and its tape entry.

    A leaf (a constant or a parameter) is its own entry, and so is an op
    result made under no_grad(), which is a detached constant. An op result
    made in grad mode holds its value and a separate value-free entry, and the
    results computed from it link to that entry. So the graph keeps the
    leaves and the arrays that rules captured, and no other value: a value
    that no rule reads is freed as soon as the caller drops its Node. Such a
    Node's grad, parents, op, trainable and _backward are its entry's.
    """

    __slots__ = ("value",)

    def __init__(self, value, op="leaf", trainable=False):
        TapeEntry.__init__(self, (), op, trainable)
        self.value = _checked(value, op)

    @property
    def entry(self) -> TapeEntry:
        """The tape entry that the results computed from this node link to."""
        return self

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape}, trainable={self.trainable})"


def _on_entry(name):
    return property(lambda node: getattr(node.entry, name), lambda node, v: setattr(node.entry, name, v))


class _Result(Node):
    """An op result made in grad mode: the value here, the links in entry."""

    __slots__ = ("entry",)
    grad, parents, op, trainable, _backward = map(_on_entry, ("grad", "parents", "op", "trainable", "_backward"))

    def __init__(self, value, op, parents):
        self.value = _checked(value, op)
        self.entry = TapeEntry(parents, op)


def record(value, op: str, inputs, rule) -> Node:
    """An op's result Node, with the op's gradient rule on the tape in grad mode.

    rule(g, *entries) routes the output gradient g to the op's inputs, which
    it receives as their tape entries, in the order of inputs. It captures the
    arrays it reads and never an input Node, so the inputs' values live on
    only where a rule reads them. The entry hands the rule its own gradient
    through a weak reference to itself, so a graph holds no reference cycles:
    it is freed as soon as its last outside reference goes, without waiting
    for the cyclic collector, and a rule runs also after the caller has
    dropped the result Node. Under no_grad() no entry is made: the result is a
    detached constant, and the rule goes with every array it holds.
    """
    if not _grad_enabled:
        return Node(value, op)
    out = _Result(value, op, tuple([node.entry for node in inputs]))
    ref = weakref.ref(out.entry)

    def run():
        entry = ref()
        rule(entry.grad, *entry.parents)

    out.entry._backward = run
    return out


def constant(x) -> Node:
    return Node(x)


def parameter(x) -> Node:
    return Node(x, trainable=True)


def _same_shape(op, a, b):
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _same_shape("add", a, b)

    def backward(g, a, b):
        if a.needs_grad:
            a.accumulate_grad(g)
        if b.needs_grad:
            b.accumulate_grad(g)

    return record(a.value + b.value, "add", (a, b), backward)


def sub(a: Node, b: Node) -> Node:
    _same_shape("sub", a, b)

    def backward(g, a, b):
        if a.needs_grad:
            a.accumulate_grad(g)
        if b.needs_grad:
            b.accumulate_grad(-g, own=True)

    return record(a.value - b.value, "sub", (a, b), backward)


def mul(a: Node, b: Node) -> Node:
    _same_shape("mul", a, b)
    av, bv = a.value, b.value

    def backward(g, a, b):
        if a.needs_grad:
            a.accumulate_grad(g * bv, own=True)
        if b.needs_grad:
            b.accumulate_grad(g * av, own=True)

    return record(av * bv, "mul", (a, b), backward)


def affine(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b with the bias broadcast over rows."""
    xv, wv = x.value, w.value
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ValueError(f"affine: shape mismatch {xv.shape} @ {wv.shape}")
    if b.value.shape != (wv.shape[1],):
        raise ValueError(f"affine: bias shape {b.value.shape} != ({wv.shape[1]},)")
    y = xv @ wv
    y += b.value

    def backward(g, x, w, b):
        if x.needs_grad:
            x.accumulate_grad(g @ wv.T, own=True)
        if w.needs_grad:
            w.accumulate_grad(xv.T @ g, own=True)
        if b.needs_grad:
            b.accumulate_grad(g.sum(axis=0), own=True)

    return record(y, "affine", (x, w, b), backward)


def sigmoid(a: Node) -> Node:
    with np.errstate(over="ignore"):
        y = sigmoid_of_negated(np.negative(a.value, out=np.empty_like(a.value)))  # out= keeps 0-d an array

    def backward(g, a):
        if a.needs_grad:
            a.accumulate_grad(g * y * (1.0 - y), own=True)

    return record(y, "sigmoid", (a,), backward)


def relu(a: Node) -> Node:
    y = np.maximum(a.value, 0.0)

    def backward(g, a):
        if a.needs_grad:
            a.accumulate_grad(g * (y > 0.0), own=True)  # y > 0 exactly where a > 0, NaN and -0.0 included

    return record(y, "relu", (a,), backward)


def log10(a: Node) -> Node:
    # domain: strictly positive values; out-of-domain inputs yield -inf/nan,
    # caught by the check-finite mode when enabled
    av = a.value
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log10(av)

    def backward(g, a):
        if a.needs_grad:
            a.accumulate_grad(g / (av * np.log(10.0)), own=True)

    return record(y, "log10", (a,), backward)


def mean(a: Node) -> Node:
    shape, size = a.value.shape, a.value.size

    def backward(g, a):
        if a.needs_grad:
            a.accumulate_grad(np.full(shape, float(g) / size), own=True)

    return record(np.mean(a.value), "mean", (a,), backward)


def dot(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ValueError(f"dot: shape mismatch {av.shape} vs {bv.shape}")

    def backward(g, a, b):
        g = float(g)
        if a.needs_grad:
            a.accumulate_grad(g * bv, own=True)
        if b.needs_grad:
            b.accumulate_grad(g * av, own=True)

    return record(np.dot(av, bv), "dot", (a, b), backward)


def narrow(a: Node, axis: int, start: int, stop: int) -> Node:
    """Contiguous slice [start:stop) along axis 0 or 1."""
    shape = a.value.shape
    if axis not in (0, 1) or axis >= len(shape):
        raise ValueError(f"narrow: bad axis {axis} for shape {shape}")
    if not (0 <= start < stop <= shape[axis]):
        raise ValueError(f"narrow: range [{start}, {stop}) invalid for axis {axis} of shape {shape}")
    sl = (slice(start, stop),) if axis == 0 else (slice(None), slice(start, stop))

    def backward(g, a):
        if a.needs_grad:
            if a.grad is None:
                a.grad = np.zeros(shape)
            a.grad[sl] += g

    return record(a.value[sl], "narrow", (a,), backward)


def concat(nodes: list[Node], axis: int = 0) -> Node:
    if not nodes:
        raise ValueError("concat: empty input list")
    sizes = [n.value.shape[axis] for n in nodes]

    def backward(g, *parts):
        offset = 0
        for part, size in zip(parts, sizes):
            if part.needs_grad:
                sl = (slice(offset, offset + size),) if axis == 0 else (slice(None), slice(offset, offset + size))
                part.accumulate_grad(g[sl])
            offset += size

    return record(np.concatenate([n.value for n in nodes], axis=axis), "concat", nodes, backward)


def scale(a: Node, s: Node) -> Node:
    """Multiply a tensor by a scalar node."""
    if s.value.shape != ():
        raise ValueError(f"scale: scalar node must have shape (), got {s.value.shape}")
    av, sv = a.value, float(s.value)

    def backward(g, a, s):
        if a.needs_grad:
            a.accumulate_grad(g * sv, own=True)
        if s.needs_grad:
            s.accumulate_grad(np.sum(g * av), own=True)

    return record(av * sv, "scale", (a, s), backward)


def add_scalar(a: Node, c: float) -> Node:
    def backward(g, a):
        if a.needs_grad:
            a.accumulate_grad(g)

    return record(a.value + c, "add_scalar", (a,), backward)


def mul_scalar(a: Node, c: float) -> Node:
    def backward(g, a):
        if a.needs_grad:
            a.accumulate_grad(g * c, own=True)

    return record(a.value * c, "mul_scalar", (a,), backward)


def gather_rows(a: Node, start: int, step: int) -> Node:
    """Rows start, start + step, ... of a 2-D tensor, as a view that copies nothing.

    Backward adds the output gradient into rows start::step of a's gradient
    and leaves every other row as it was.
    """
    shape = a.value.shape
    if len(shape) != 2:
        raise ValueError(f"gather_rows: 2-D input required, got shape {shape}")
    if step < 1 or not 0 <= start < shape[0]:
        raise ValueError(f"gather_rows: start {start}, step {step} invalid for {shape[0]} rows")

    def backward(g, a):
        if a.needs_grad:
            if a.grad is None:
                a.grad = np.zeros(shape)
            a.grad[start::step] += g

    return record(a.value[start::step], "gather_rows", (a,), backward)


def _topo_order(root: Node) -> list[TapeEntry]:
    """The tape entries reachable from root's entry, each after its parents."""
    root = root.entry
    order = []
    visited = {id(root)}
    stack = [(root, iter(root.parents))]
    while stack:
        entry, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p.parents)))
                advanced = True
                break
        if not advanced:
            order.append(entry)
            stack.pop()
    return order


def backward(loss: Node) -> None:
    """Add the gradient of a scalar loss to the .grad of every parameter it depends on.

    Tape entries are visited in reverse topological order. An interior
    entry's gradient is transient: it is released as soon as the entry's rule
    has routed it to the inputs, so only parameters (trainable leaves) hold a
    .grad when backward returns. Gradients accumulate additively across
    fan-out and across repeated calls without clearing; each entry keeps its
    rule, so backward on the same loss again adds one more full pass.
    Constants do not materialize a gradient; non-ancestors are untouched.
    """
    if loss.value.shape not in ((), (1,)):
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    if loss.op != "leaf" and not loss.parents:
        raise ValueError(f"backward: '{loss.op}' result has no graph; it was built under no_grad()")
    order = _topo_order(loss)
    # set earlier parameter gradients aside and add them back at the end, so
    # a repeated call adds one whole pass, summed in the same order as the first
    saved = [(entry, entry.grad) for entry in order if entry.trainable and entry.grad is not None]
    for entry, _ in saved:
        entry.grad = None
    loss.entry.accumulate_grad(np.ones_like(loss.value), own=True)
    for entry in reversed(order):
        if entry._backward is not None:
            entry._backward()
        if not entry.trainable:
            entry.grad = None
    for entry, old in saved:
        if entry.grad is None:
            entry.grad = old
        else:
            entry.grad += old


class ParamStore:
    """Named trainable parameters in creation order, as views of one vector.

    add() declares a parameter's initial value; with draw set, reset() calls
    draw(rng, value) to fill it instead. On first use (values, reset, items,
    nodes or the flat round trip) the store makes one float64 vector, values,
    and every parameter's value becomes a reshaped view of it; add() raises
    after that. Before it a value is the array add() was given: read-only in
    the layers, so a write that the vector would lose raises.
    """

    def __init__(self):
        self._params: dict[str, Node] = {}
        self._initial: list = []  # (initial value, draw or None) per parameter
        self._values = None
        self.total_size = 0

    def add(self, name: str, value, draw=None) -> Node:
        if self._values is not None:
            raise ValueError(f"cannot add '{name}': the parameter vector is already made")
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        node = self._params[name] = parameter(value)
        self._initial.append((node.value, draw))
        self.total_size += node.value.size
        return node

    def _adopt(self, vec: np.ndarray, fill: bool) -> None:
        offset = 0
        for node in self._params.values():
            view = vec[offset : offset + node.value.size].reshape(node.value.shape)
            if fill:
                view[...] = node.value
            node.value = view
            offset += view.size
        self._values = vec

    def _vector(self) -> np.ndarray:
        if self._values is None:
            self._adopt(np.empty(self.total_size), fill=True)
        return self._values

    values = property(_vector, doc="Every parameter value in creation order, row-major.")

    def reset(self, rng: np.random.Generator) -> None:
        """Set every parameter to its initial value, or draw it from rng, in creation order."""
        for node, (initial, draw) in zip(self.nodes(), self._initial):
            if draw is None:
                node.value[...] = initial
            else:
                draw(rng, node.value)

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        self._vector()
        return self._params.items()

    def nodes(self) -> list[Node]:
        self._vector()
        return list(self._params.values())

    def zero_grad(self) -> None:
        for node in self._params.values():
            node.grad = None

    def flat_values(self) -> np.ndarray:
        return self.values.copy()

    def load_flat_values(self, vec: np.ndarray) -> None:
        """Copy vec into values; a store not yet used adopts a copy of vec as its vector."""
        vec = as_tensor(vec).reshape(-1)
        if vec.size != self.total_size:
            raise ValueError(f"load_flat_values: got {vec.size} values, store holds {self.total_size}")
        if self._values is None:
            self._adopt(np.array(vec, dtype=np.float64), fill=False)
        else:
            np.copyto(self._values, vec)


def grad_check(f, params: ParamStore, epsilon: float = 1e-5, coords_per_param: int | None = None, seed: int = 0) -> float:
    """Max relative error between analytic gradients and central finite differences.

    coords_per_param=None sweeps every coordinate; an integer samples that many
    coordinates per parameter tensor (deterministic in seed) so larger models
    stay affordable. Relative error uses denominator max(|a|, |n|, 1e-8).
    """
    params.zero_grad()
    loss = f(params)
    backward(loss)
    analytic = {
        name: (node.grad.copy() if node.grad is not None else np.zeros_like(node.value))
        for name, node in params.items()
    }
    params.zero_grad()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, node in params.items():
        flat = node.value.reshape(-1)
        size = flat.size
        if coords_per_param is None or coords_per_param >= size:
            coords = range(size)
        else:
            coords = np.sort(rng.choice(size, size=coords_per_param, replace=False))
        a_flat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = float(f(params).value)
            flat[i] = orig - epsilon
            f_minus = float(f(params).value)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
