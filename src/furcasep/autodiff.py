"""Reverse-mode automatic differentiation over dense float64 numpy tensors.

Eager forward, taped backward: every operation computes its value immediately
and records a closure that routes the output gradient to its inputs. Scalars
are 0-d arrays. There is no implicit broadcasting; shapes must match exactly
except where an operation is explicitly defined otherwise (broadcast_add,
scale, the *_scalar helpers).
"""

from __future__ import annotations

import weakref

import numpy as np

Tensor = np.ndarray  # always float64, row-major

_check_finite = False


def set_check_finite(enabled: bool) -> None:
    """Toggle NaN/Inf detection on every op result (debug mode, default off)."""
    global _check_finite
    _check_finite = bool(enabled)


def as_tensor(x) -> Tensor:
    return np.asarray(x, dtype=np.float64)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # clipping keeps exp() in range; sigmoid saturates far before +-500 anyway
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


class Node:
    """A value in the computation graph, with an optional gradient of the same shape."""

    __slots__ = ("value", "grad", "parents", "op", "trainable", "_backward", "__weakref__")

    def __init__(self, value, parents=(), op="leaf", trainable=False):
        self.value = as_tensor(value)
        if _check_finite and not np.all(np.isfinite(self.value)):
            raise FloatingPointError(f"non-finite values in '{op}' result")
        self.grad = None
        self.parents = tuple(parents)
        self.op = op
        self.trainable = trainable
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def needs_grad(self) -> bool:
        """Gradients are materialized for parameters and interior nodes, not plain constants."""
        return self.trainable or bool(self.parents)

    def accumulate_grad(self, g, own: bool = False) -> None:
        """Add g into this node's gradient. own=True donates a fresh buffer
        that no other node references, avoiding a copy."""
        if self.grad is None:
            self.grad = g if own else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape}, trainable={self.trainable})"


def set_backward(out: Node, backward) -> Node:
    """Attach an op's gradient rule to its output node and return the node.

    backward(g) receives the output gradient and routes it to the op's
    inputs. The node reaches the rule through a weak reference to itself,
    so a graph holds no reference cycles: it is freed as soon as its last
    outside reference goes, without waiting for the cyclic collector.
    """
    ref = weakref.ref(out)
    out._backward = lambda: backward(ref().grad)
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
    out = Node(a.value + b.value, (a, b), "add")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g)
        if b.needs_grad:
            b.accumulate_grad(g)

    return set_backward(out, backward)


def sub(a: Node, b: Node) -> Node:
    _same_shape("sub", a, b)
    out = Node(a.value - b.value, (a, b), "sub")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g)
        if b.needs_grad:
            b.accumulate_grad(-g, own=True)

    return set_backward(out, backward)


def mul(a: Node, b: Node) -> Node:
    _same_shape("mul", a, b)
    out = Node(a.value * b.value, (a, b), "mul")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g * b.value, own=True)
        if b.needs_grad:
            b.accumulate_grad(g * a.value, own=True)

    return set_backward(out, backward)


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul: shape mismatch {a.value.shape} @ {b.value.shape}")
    out = Node(a.value @ b.value, (a, b), "matmul")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g @ b.value.T, own=True)
        if b.needs_grad:
            b.accumulate_grad(a.value.T @ g, own=True)

    return set_backward(out, backward)


def affine(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b with the bias broadcast over rows (fused matmul + broadcast_add)."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0]:
        raise ValueError(f"affine: shape mismatch {x.value.shape} @ {w.value.shape}")
    if b.value.shape != (w.value.shape[1],):
        raise ValueError(f"affine: bias shape {b.value.shape} != ({w.value.shape[1]},)")
    y = x.value @ w.value
    y += b.value
    out = Node(y, (x, w, b), "affine")

    def backward(g):
        if x.needs_grad:
            x.accumulate_grad(g @ w.value.T, own=True)
        if w.needs_grad:
            w.accumulate_grad(x.value.T @ g, own=True)
        if b.needs_grad:
            b.accumulate_grad(g.sum(axis=0), own=True)

    return set_backward(out, backward)


def conv1d_valid(x: Node, k: Node, stride: int = 1) -> Node:
    """Valid (no-padding) 1-D correlation; output length floor((n - m)/stride) + 1."""
    if x.value.ndim != 1 or k.value.ndim != 1:
        raise ValueError(f"conv1d_valid: 1-D inputs required, got {x.value.shape} and {k.value.shape}")
    n, m = x.value.shape[0], k.value.shape[0]
    if m > n:
        raise ValueError(f"conv1d_valid: kernel shape {k.value.shape} longer than signal shape {x.value.shape}")
    if stride < 1:
        raise ValueError(f"conv1d_valid: stride must be positive, got {stride}")
    out_len = (n - m) // stride + 1
    rows = (np.arange(out_len) * stride)[:, None] + np.arange(m)[None, :]
    windows = x.value[rows]
    out = Node(windows @ k.value, (x, k), "conv1d_valid")

    def backward(g):
        if k.needs_grad:
            k.accumulate_grad(windows.T @ g, own=True)
        if x.needs_grad:
            dx = np.zeros_like(x.value)
            np.add.at(dx, rows, g[:, None] * k.value[None, :])
            x.accumulate_grad(dx, own=True)

    return set_backward(out, backward)


def sigmoid(a: Node) -> Node:
    y = stable_sigmoid(a.value)
    out = Node(y, (a,), "sigmoid")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g * y * (1.0 - y), own=True)

    return set_backward(out, backward)


def tanh(a: Node) -> Node:
    y = np.tanh(a.value)
    out = Node(y, (a,), "tanh")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g * (1.0 - y * y), own=True)

    return set_backward(out, backward)


def relu(a: Node) -> Node:
    out = Node(np.maximum(a.value, 0.0), (a,), "relu")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g * (a.value > 0.0), own=True)

    return set_backward(out, backward)


def log10(a: Node) -> Node:
    # domain: strictly positive values; out-of-domain inputs yield -inf/nan,
    # caught by the check-finite mode when enabled
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Node(np.log10(a.value), (a,), "log10")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g / (a.value * np.log(10.0)), own=True)

    return set_backward(out, backward)


def sum(a: Node) -> Node:  # noqa: A001 - mirrors numpy naming
    out = Node(np.sum(a.value), (a,), "sum")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(np.full_like(a.value, float(g)), own=True)

    return set_backward(out, backward)


def mean(a: Node) -> Node:
    out = Node(np.mean(a.value), (a,), "mean")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(np.full_like(a.value, float(g) / a.value.size), own=True)

    return set_backward(out, backward)


def dot(a: Node, b: Node) -> Node:
    if a.value.ndim != 1 or b.value.ndim != 1 or a.value.shape != b.value.shape:
        raise ValueError(f"dot: shape mismatch {a.value.shape} vs {b.value.shape}")
    out = Node(np.dot(a.value, b.value), (a, b), "dot")

    def backward(g):
        g = float(g)
        if a.needs_grad:
            a.accumulate_grad(g * b.value, own=True)
        if b.needs_grad:
            b.accumulate_grad(g * a.value, own=True)

    return set_backward(out, backward)


def narrow(a: Node, axis: int, start: int, stop: int) -> Node:
    """Contiguous slice [start:stop) along axis 0 or 1."""
    if axis not in (0, 1) or axis >= a.value.ndim:
        raise ValueError(f"narrow: bad axis {axis} for shape {a.value.shape}")
    size = a.value.shape[axis]
    if not (0 <= start < stop <= size):
        raise ValueError(f"narrow: range [{start}, {stop}) invalid for axis {axis} of shape {a.value.shape}")
    sl = (slice(start, stop),) if axis == 0 else (slice(None), slice(start, stop))
    out = Node(a.value[sl], (a,), "narrow")

    def backward(g):
        if a.needs_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.value)
            a.grad[sl] += g

    return set_backward(out, backward)


def concat(nodes: list[Node], axis: int = 0) -> Node:
    if not nodes:
        raise ValueError("concat: empty input list")
    sizes = [n.value.shape[axis] for n in nodes]
    out = Node(np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes), "concat")

    def backward(g):
        offset = 0
        for node, size in zip(nodes, sizes):
            if node.needs_grad:
                sl = (slice(offset, offset + size),) if axis == 0 else (slice(None), slice(offset, offset + size))
                node.accumulate_grad(g[sl])
            offset += size

    return set_backward(out, backward)


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise ValueError(f"transpose: 2-D input required, got shape {a.value.shape}")
    out = Node(a.value.T.copy(), (a,), "transpose")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g.T)

    return set_backward(out, backward)


def broadcast_add(a: Node, b: Node) -> Node:
    """Add a length-F bias vector to every row of an [R x F] matrix."""
    if a.value.ndim != 2 or b.value.ndim != 1 or a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"broadcast_add: shape mismatch {a.value.shape} + {b.value.shape}")
    out = Node(a.value + b.value, (a, b), "broadcast_add")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g)
        if b.needs_grad:
            b.accumulate_grad(g.sum(axis=0), own=True)

    return set_backward(out, backward)


def scale(a: Node, s: Node) -> Node:
    """Multiply a tensor by a scalar node."""
    if s.value.shape != ():
        raise ValueError(f"scale: scalar node must have shape (), got {s.value.shape}")
    out = Node(a.value * float(s.value), (a, s), "scale")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g * float(s.value), own=True)
        if s.needs_grad:
            s.accumulate_grad(np.sum(g * a.value), own=True)

    return set_backward(out, backward)


def add_scalar(a: Node, c: float) -> Node:
    out = Node(a.value + c, (a,), "add_scalar")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g)

    return set_backward(out, backward)


def mul_scalar(a: Node, c: float) -> Node:
    out = Node(a.value * c, (a,), "mul_scalar")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g * c, own=True)

    return set_backward(out, backward)


def reshape(a: Node, shape: tuple[int, ...]) -> Node:
    out = Node(a.value.reshape(shape), (a,), "reshape")

    def backward(g):
        if a.needs_grad:
            a.accumulate_grad(g.reshape(a.value.shape))

    return set_backward(out, backward)


def gather_rows(a: Node, indices) -> Node:
    """Select rows of a 2-D tensor by index; duplicate indices accumulate in backward."""
    if a.value.ndim != 2:
        raise ValueError(f"gather_rows: 2-D input required, got shape {a.value.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: 1-D index array required, got shape {idx.shape}")
    unique = len(np.unique(idx)) == idx.size
    out = Node(a.value[idx], (a,), "gather_rows")

    def backward(g):
        if not a.needs_grad:
            return
        if a.grad is None:
            if unique and idx.size == a.value.shape[0]:
                # a permutation of all rows: scatter-assign, no zero fill needed
                a.grad = np.empty_like(a.value)
                a.grad[idx] = g
                return
            a.grad = np.zeros_like(a.value)
        if unique:
            a.grad[idx] += g
        else:
            np.add.at(a.grad, idx, g)

    return set_backward(out, backward)


def _topo_order(root: Node) -> list[Node]:
    order = []
    visited = {id(root)}
    stack = [(root, iter(root.parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p.parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Node) -> None:
    """Populate gradients of ancestors of a scalar loss (reverse topological order).

    Gradients accumulate additively across fan-out and across repeated calls
    without clearing. Non-trainable leaves (constants) do not materialize a
    gradient; non-ancestors are untouched.
    """
    if loss.value.shape not in ((), (1,)):
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    order = _topo_order(loss)
    # set pre-existing gradients aside so this pass computes fresh adjoints,
    # then merge them back: every call adds exactly one full gradient pass
    saved = []
    for node in order:
        if node.grad is not None:
            saved.append((node, node.grad))
            node.grad = None
    loss.accumulate_grad(np.ones_like(loss.value), own=True)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
    for node, old in saved:
        if node.grad is None:
            node.grad = old
        else:
            node.grad += old


class ParamStore:
    """Named trainable parameters in creation order."""

    def __init__(self):
        self._params: dict[str, Node] = {}

    def add(self, name: str, value) -> Node:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        node = parameter(value)
        self._params[name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def nodes(self) -> list[Node]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for node in self._params.values():
            node.grad = None

    @property
    def total_size(self) -> int:
        return int(np.sum([n.value.size for n in self._params.values()], dtype=np.int64)) if self._params else 0

    def flat_values(self) -> np.ndarray:
        """All parameter values concatenated in creation order, row-major."""
        if not self._params:
            return np.zeros(0)
        return np.concatenate([n.value.reshape(-1) for n in self._params.values()])

    def load_flat_values(self, vec: np.ndarray) -> None:
        vec = as_tensor(vec).reshape(-1)
        if vec.size != self.total_size:
            raise ValueError(f"load_flat_values: got {vec.size} values, store holds {self.total_size}")
        offset = 0
        for node in self._params.values():
            size = node.value.size
            node.value[...] = vec[offset : offset + size].reshape(node.value.shape)
            offset += size


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
