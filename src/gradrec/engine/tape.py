"""Reverse-mode automatic differentiation over dense float64 arrays.

Every op kind registers its forward and its VJP together, in one table.
Every operation records a node holding its output and references to its
inputs; creation order is a topological order of the resulting DAG, so
``backward`` simply walks nodes in reverse creation order accumulating
vector-Jacobian products, and reports only the leaves the loss reaches.
Graphs are cheap and meant to be rebuilt for every training step.

Shape rules are strict. ``add``, ``sub`` and ``mul`` take equal shapes or
one operand whose shape is a trailing suffix of the other's (a scalar,
``(m,)`` with ``(B, m)``), whose gradient sums over the leading axes. Size-1
axes are never stretched; any other mismatch raises :class:`ShapeError`.

Gradients are dense arrays of their input's shape. ``embedding_lookup``
scatters its gradient into the table with one ``np.bincount`` over flat
element positions, which sums repeated indices in index order from 0.0,
bit for bit what a scatter-add into zeros gives. A row-sparse gradient
would save nothing while the optimizer steps whole tables.

A few ops also take a leading batch axis, so that a minibatch of small
graphs is one graph over stacked tensors:

* ``matmul`` -- rank-3 operands follow numpy ``@``: ``(B, m, n) @ (B, n, p)``,
  or a rank-2 operand on either side shared across the batch (its gradient
  is summed over the batch). Batch sizes must match exactly.
* ``transpose`` -- a rank-3 input swaps its last two axes.
* ``softmax_rows`` -- normalizes the last axis of a rank-2 or rank-3 input.
* ``conv_h`` -- input ``(B, L, d)`` gives ``(B, L - h + 1, n_f)``.
* ``max_over_time`` -- input ``(B, T, n)`` gives ``(B, n)``.
* ``sq_l2_dist`` -- row batches ``(N, k)`` give ``(N,)``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from gradrec.errors import ShapeError, UnknownOpError

Array = np.ndarray

_ids = itertools.count()


class Node:
    """One tape entry: cached output plus enough context to backpropagate.

    Leaves have ``op is None``; interior nodes name the op that produced
    them. ``value`` is treated as immutable once the node exists.
    """

    __slots__ = ("value", "op", "inputs", "attrs", "requires_grad", "name", "_id")

    def __init__(self, value, op=None, inputs=(), attrs=None, requires_grad=False, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.op = op
        self.inputs: tuple[Node, ...] = tuple(inputs)
        self.attrs = attrs or {}
        self.requires_grad = requires_grad
        self.name = name
        self._id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self):
        tag = self.name or self.op or "const"
        return f"Node({tag}, shape={self.value.shape})"

    # -- operator sugar; everything routes through forward() ------------

    def __add__(self, other):
        return forward("add", [self, other])

    def __radd__(self, other):
        return forward("add", [other, self])

    def __sub__(self, other):
        return forward("sub", [self, other])

    def __rsub__(self, other):
        return forward("sub", [other, self])

    def __mul__(self, other):
        return forward("mul", [self, other])

    def __rmul__(self, other):
        return forward("mul", [other, self])

    def __neg__(self):
        return forward("mul", [const(-1.0), self])

    def __matmul__(self, other):
        return forward("matmul", [self, other])

    def sum(self, axis: int | None = None):
        return forward("sum", [self], axis=axis)

    def mean(self, axis: int | None = None):
        return forward("mean", [self], axis=axis)

    def sigmoid(self):
        return forward("sigmoid", [self])

    def relu(self):
        return forward("relu", [self])

    def softplus(self):
        return forward("softplus", [self])

    def reshape(self, shape: Sequence[int]):
        return forward("reshape", [self], shape=tuple(shape))

    @property
    def T(self):
        return forward("transpose", [self])


def param(value, name: str | None = None) -> Node:
    """Leaf that accumulates gradients."""
    return Node(value, requires_grad=True, name=name)


def const(value, name: str | None = None) -> Node:
    """Leaf treated as a constant; backward never flows into it."""
    return Node(value, requires_grad=False, name=name)


# ---------------------------------------------------------------------------
# op registry
# ---------------------------------------------------------------------------

# forward: (values, attrs) -> output array; it may add to attrs what the vjp reads
# vjp:     (node, upstream grad) -> per-input gradient list (None = no flow)
_OPS: dict[str, tuple[Callable, Callable]] = {}


def _op(name, vjp):
    def wrap(fn):
        _OPS[name] = (fn, vjp)
        return fn

    return wrap


def forward(op_kind: str, inputs: Iterable, **attrs) -> Node:
    """Apply ``op_kind`` to ``inputs`` and append the result to the tape.

    Inputs may be nodes, arrays or scalars; non-nodes become constants.
    """
    entry = _OPS.get(op_kind)
    if entry is None:
        raise UnknownOpError(op_kind)
    nodes = [x if isinstance(x, Node) else const(x) for x in inputs]
    value = entry[0]([n.value for n in nodes], attrs)
    return Node(
        value,
        op=op_kind,
        inputs=nodes,
        attrs=attrs,
        requires_grad=any(n.requires_grad for n in nodes),
    )


def backward(loss: Node) -> dict[Node, Array]:
    """Reverse-accumulate gradients of a scalar ``loss``.

    Returns a map from the gradient-bearing leaves the loss reaches to
    their gradients; a leaf it does not reach is absent.
    """
    if loss.value.shape != ():
        raise ShapeError("backward", "scalar loss of shape ()", str(loss.value.shape))

    # Reachable sub-DAG that can influence a gradient-bearing leaf.
    visited: set[int] = set()
    ordered: list[Node] = []
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        ordered.append(node)
        stack.extend(node.inputs)
    # Creation order is topological; reverse it for accumulation.
    ordered.sort(key=lambda n: n._id, reverse=True)

    grads: dict[int, Array] = {id(loss): np.ones(())}
    result: dict[Node, Array] = {}
    for node in ordered:
        g = grads.get(id(node))
        if g is None:
            continue
        if node.op is None:
            result[node] = g
            continue
        contribs = _OPS[node.op][1](node, g)
        for inp, contrib in zip(node.inputs, contribs):
            if contrib is None or not inp.requires_grad:
                continue
            prev = grads.get(id(inp))
            grads[id(inp)] = contrib if prev is None else prev + contrib
    return result


# ---------------------------------------------------------------------------
# shape helpers
# ---------------------------------------------------------------------------


def _check(cond: bool, op: str, expected: str, actual):
    if not cond:
        raise ShapeError(op, expected, str(actual))


def _binary_shapes(op: str, a: Array, b: Array) -> None:
    if a.shape != b.shape:
        short, long = sorted((a.shape, b.shape), key=len)
        if long[len(long) - len(short):] != short:
            raise ShapeError(op, "equal shapes or one a trailing suffix of the other",
                             f"{a.shape} vs {b.shape}")


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    # sum the leading axes an operand of a trailing-suffix shape was broadcast along
    if g.shape == shape:
        return g
    return np.asarray(g.sum(axis=tuple(range(g.ndim - len(shape)))))


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------


def _add_vjp(node, g):
    a, b = (i.value for i in node.inputs)
    return [_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)]


@_op("add", _add_vjp)
def _add(values, attrs):
    a, b = values
    _binary_shapes("add", a, b)
    return a + b


def _sub_vjp(node, g):
    a, b = (i.value for i in node.inputs)
    return [_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)]


@_op("sub", _sub_vjp)
def _sub(values, attrs):
    a, b = values
    _binary_shapes("sub", a, b)
    return a - b


def _mul_vjp(node, g):
    a, b = (i.value for i in node.inputs)
    return [_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)]


@_op("mul", _mul_vjp)
def _mul(values, attrs):
    a, b = values
    _binary_shapes("mul", a, b)
    return a * b


def _sum_vjp(node, g):
    x = node.inputs[0].value
    axis = node.attrs.get("axis")
    if axis is None:
        return [np.broadcast_to(g, x.shape)]
    return [np.broadcast_to(np.expand_dims(g, axis), x.shape)]


@_op("sum", _sum_vjp)
def _sum(values, attrs):
    (x,) = values
    axis = attrs.get("axis")
    if axis is not None:
        _check(-x.ndim <= axis < x.ndim, "sum", f"axis within rank {x.ndim}", axis)
    return np.asarray(x.sum(axis=axis))


def _mean_vjp(node, g):
    x = node.inputs[0].value
    axis = node.attrs.get("axis")
    if axis is None:
        return [np.broadcast_to(g / x.size, x.shape)]
    return [np.broadcast_to(np.expand_dims(g / x.shape[axis], axis), x.shape)]


@_op("mean", _mean_vjp)
def _mean(values, attrs):
    (x,) = values
    axis = attrs.get("axis")
    if axis is not None:
        _check(-x.ndim <= axis < x.ndim, "mean", f"axis within rank {x.ndim}", axis)
    return np.asarray(x.mean(axis=axis))


def _sigmoid_vjp(node, g):
    s = node.value
    return [g * s * (1.0 - s)]


@_op("sigmoid", _sigmoid_vjp)
def _sigmoid(values, attrs):
    (x,) = values
    # exp(-softplus(-x)) is stable on both tails.
    return np.exp(-np.logaddexp(0.0, -x))


def _relu_vjp(node, g):
    return [g * (node.inputs[0].value > 0.0)]


@_op("relu", _relu_vjp)
def _relu(values, attrs):
    return np.maximum(values[0], 0.0)


def _softplus_vjp(node, g):
    x = node.inputs[0].value
    return [g * np.exp(-np.logaddexp(0.0, -x))]


@_op("softplus", _softplus_vjp)
def _softplus(values, attrs):
    return np.logaddexp(0.0, values[0])


def _softmax_rows_vjp(node, g):
    s = node.value
    return [s * (g - (g * s).sum(axis=-1, keepdims=True))]


@_op("softmax_rows", _softmax_rows_vjp)
def _softmax_rows(values, attrs):
    (x,) = values
    _check(x.ndim in (2, 3), "softmax_rows", "a rank-2 or rank-3 input", x.shape)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# linear algebra and structural ops
# ---------------------------------------------------------------------------


_MATMUL_FORMS = {(2, 2): "(m,n) @ (n,p)", (2, 1): "(m,n) @ (n,)", (1, 2): "(n,) @ (n,p)",
                 (3, 3): "(B,m,n) @ (B,n,p)", (3, 2): "(B,m,n) @ (n,p)",
                 (2, 3): "(m,n) @ (B,n,p)"}


def _matmul_vjp(node, g):
    a, b = (i.value for i in node.inputs)
    if a.ndim >= 2 and b.ndim >= 2:
        return [_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
                _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)]
    if b.ndim == 1:  # (m,n) @ (n,)
        return [np.outer(g, b), a.T @ g]
    # (n,) @ (n,p)
    return [b @ g, np.outer(a, g)]


@_op("matmul", _matmul_vjp)
def _matmul(values, attrs):
    a, b = values
    form = _MATMUL_FORMS.get((a.ndim, b.ndim))
    if form is None:
        raise ShapeError("matmul", "rank-2 or rank-3 operands, or rank-2 with rank-1",
                         f"{a.shape} @ {b.shape}")
    inner = b.shape[0] if b.ndim == 1 else b.shape[-2]
    same_batch = a.ndim < 3 or b.ndim < 3 or a.shape[0] == b.shape[0]
    _check(a.shape[-1] == inner and same_batch, "matmul", form, f"{a.shape} @ {b.shape}")
    return a @ b


def _transpose_vjp(node, g):
    return [np.swapaxes(g, -1, -2)]


@_op("transpose", _transpose_vjp)
def _transpose(values, attrs):
    (x,) = values
    _check(x.ndim in (2, 3), "transpose", "a rank-2 or rank-3 input", x.shape)
    return np.swapaxes(x, -1, -2)


def _reshape_vjp(node, g):
    return [g.reshape(node.inputs[0].value.shape)]


@_op("reshape", _reshape_vjp)
def _reshape(values, attrs):
    (x,) = values
    shape = attrs["shape"]
    _check(int(np.prod(shape, dtype=np.int64)) == x.size, "reshape",
           f"shape with {x.size} elements", shape)
    return x.reshape(shape)


def _concat_vjp(node, g):
    axis = node.attrs.get("axis", 0)
    sizes = [i.value.shape[axis] for i in node.inputs]
    offsets = np.cumsum([0] + sizes)
    index = [slice(None)] * g.ndim
    out = []
    for k in range(len(sizes)):
        index[axis] = slice(offsets[k], offsets[k + 1])
        out.append(g[tuple(index)])
    return out


@_op("concat", _concat_vjp)
def _concat(values, attrs):
    ranks = {v.ndim for v in values}
    _check(len(values) >= 1 and len(ranks) == 1, "concat", "inputs of equal rank",
           [v.shape for v in values])
    ndim = values[0].ndim
    axis = attrs.get("axis", 0)
    _check(-ndim <= axis < ndim, "concat", f"axis within rank {ndim}", axis)
    axis %= ndim
    attrs["axis"] = axis
    rest = lambda s: s[:axis] + s[axis + 1:]
    for v in values[1:]:
        _check(rest(v.shape) == rest(values[0].shape), "concat",
               "matching extents off the concat axis", [tuple(v.shape) for v in values])
    return np.concatenate(values, axis=axis)


def _embedding_lookup_vjp(node, g):
    table = node.inputs[0].value
    bins = node.attrs["indices"]
    if table.ndim == 2:
        k = table.shape[1]
        bins = (bins[:, None] * k + np.arange(k)).ravel()
    grad = np.bincount(bins, weights=g.ravel(), minlength=table.size)
    # with no indices at all bincount returns integers
    return [grad.astype(np.float64, copy=False).reshape(table.shape)]


@_op("embedding_lookup", _embedding_lookup_vjp)
def _embedding_lookup(values, attrs):
    (table,) = values
    indices = attrs["indices"] = np.asarray(attrs["indices"], dtype=np.int64)
    _check(table.ndim in (1, 2), "embedding_lookup", "a rank-1 or rank-2 table", table.shape)
    _check(indices.ndim == 1, "embedding_lookup", "a flat index list", indices.shape)
    if indices.size:
        lo, hi = indices.min(), indices.max()
        _check(lo >= 0 and hi < table.shape[0], "embedding_lookup",
               f"indices in [0, {table.shape[0]})", f"[{lo}, {hi}]")
    return table[indices]


# ---------------------------------------------------------------------------
# sequence ops
# ---------------------------------------------------------------------------


def _conv_windows(x: Array, h: int) -> Array:
    # (B, L, d) -> (B, L - h + 1, d, h): every height-h window, as a view
    return np.lib.stride_tricks.sliding_window_view(x, h, axis=1)


def _conv_h_vjp(node, g):
    x, f = (i.value for i in node.inputs)
    h = f.shape[1]
    xb, gb = (x, g) if x.ndim == 3 else (x[None], g[None])
    df = np.tensordot(gb, _conv_windows(xb, h), axes=([0, 1], [0, 1])).transpose(0, 2, 1)
    dx = np.zeros_like(xb)
    steps = gb.shape[1]
    for a in range(h):
        dx[:, a:a + steps] += gb @ f[:, a, :]
    return [dx if x.ndim == 3 else dx[0], df]


@_op("conv_h", _conv_h_vjp)
def _conv_h(values, attrs):
    # Full-width 1-D convolution: input (L, d) or a batch (B, L, d) and
    # filters (n_f, h, d). Valid positions only: output is (L - h + 1, n_f),
    # or (B, L - h + 1, n_f). A per-filter bias (n_f,) adds to it directly.
    x, f = values
    _check(x.ndim in (2, 3), "conv_h", "input of shape (L, d) or (B, L, d)", x.shape)
    _check(f.ndim == 3 and f.shape[2] == x.shape[-1], "conv_h",
           f"filters of shape (n_f, h, {x.shape[-1]})", f.shape)
    h = f.shape[1]
    _check(1 <= h <= x.shape[-2], "conv_h", f"filter height within 1..{x.shape[-2]}", h)
    xb = x if x.ndim == 3 else x[None]
    out = np.tensordot(_conv_windows(xb, h), f, axes=([2, 3], [2, 1]))
    return out if x.ndim == 3 else out[0]


def _max_over_time_vjp(node, g):
    grad = np.zeros_like(node.inputs[0].value)
    np.put_along_axis(grad, node.attrs["argmax"], np.expand_dims(g, -2), axis=-2)
    return [grad]


@_op("max_over_time", _max_over_time_vjp)
def _max_over_time(values, attrs):
    (x,) = values
    _check(x.ndim in (2, 3) and x.shape[-2] >= 1, "max_over_time",
           "a non-empty (T, n) or (B, T, n) input", x.shape)
    attrs["argmax"] = np.expand_dims(x.argmax(axis=-2), -2)
    return x.max(axis=-2)


def _sq_l2_dist_vjp(node, g):
    a, b = (i.value for i in node.inputs)
    da = 2.0 * g[..., None] * (a - b)
    return [da, -da]


@_op("sq_l2_dist", _sq_l2_dist_vjp)
def _sq_l2_dist(values, attrs):
    a, b = values
    _check(a.shape == b.shape and a.ndim in (1, 2), "sq_l2_dist",
           "two vectors or two row-batches of equal shape", f"{a.shape} vs {b.shape}")
    d = a - b
    return (d * d).sum(axis=-1)


# module-level aliases for the multi-input / attr-carrying ops


def matmul(a: Node, b: Node) -> Node:
    return forward("matmul", [a, b])


def embedding_lookup(table: Node, indices) -> Node:
    return forward("embedding_lookup", [table], indices=np.asarray(indices, dtype=np.int64))


def concat(nodes: Sequence[Node], axis: int = 0) -> Node:
    return forward("concat", list(nodes), axis=axis)


def softmax_rows(x: Node) -> Node:
    return forward("softmax_rows", [x])


def conv_h(x: Node, filters: Node) -> Node:
    return forward("conv_h", [x, filters])


def max_over_time(x: Node) -> Node:
    return forward("max_over_time", [x])


def sq_l2_dist(a: Node, b: Node) -> Node:
    return forward("sq_l2_dist", [a, b])


OP_KINDS = tuple(sorted(_OPS))
