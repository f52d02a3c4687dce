"""Dense-array computation graphs with reverse-mode differentiation.

A :class:`Graph` is structure only: an append-only list of nodes; node
inputs always refer to earlier nodes, so the list itself is a topological
order.  Values live in a per-evaluation :class:`Workspace`, never in the
graph, which makes graphs immutable after construction and safe to
evaluate concurrently.

Leaf nodes are named *inputs* and *parameters*, whose values are passed at
evaluation, so evaluation is a pure function of (graph, bindings, params).
Stochastic behaviour such as dropout enters only through bound mask inputs.
Every parameter takes a gradient; the loss is the output named ``"loss"``.

Every other op is one entry of the table ``_OPS = {op: (forward,
backward)}``: ``forward(node, *inputs)`` checks shapes and id ranges and
returns the value, ``backward(dy, value, *inputs)`` returns one gradient per
input (``None`` for integer ids, targets and masks).  :func:`forward_eval`
and :func:`backward` are loops over that table.  Its 12 ops are those that
networks build: matmul, mul, tanh, softmax, gather, concat, xent,
masked_mean, lstm, gru, item and take; the tests' step-by-step reference
adds add, add_bias, sigmoid, one_minus and sum from ``tests/support.py``,
which also holds the central finite differences that every backward is
tested against.  A matmul takes an optional bias vector, added into its
product, so a layer's affine map is one node.

Values are time-major, the one layout: ids, targets and masks are bound as
(T, B) arrays and dropout masks as (T, B, n), so one evaluation covers T
positions of B rows; a matmul, gather or xent operand without the time
axis, or a matmul bias that is not one vector as wide as the product, is a
:class:`ShapeError`.  Ops without a recurrence compute all T·B rows at
once; ``lstm`` and ``gru`` run the time loop inside one node, with every
step's input products hoisted out of it, and backpropagate through time in
their backward.  Their value stacks sequences along a leading axis, and
``item`` nodes pick its parts: part 0 is the hidden sequence and, for an
LSTM, part 1 the cell sequence.  In training the value stacks every
per-step quantity the backward needs after them.  An evaluation, a
recurrent op given the ``rows`` operand (which has no gradient), keeps
those state sequences only: each step writes its gates into arrays that
die with the step, its input products once added and its pre-activations,
so an evaluation holds about what it returns.

Each op does, step by step, the arithmetic of a graph that ran one node per
operation and time step, in that graph's order, so results do not depend on
how many steps one evaluation covers:

* a matmul whose left operand has a multiple of ``ROW_BLOCK`` rows per step
  runs as one gemm per block of ``ROW_BLOCK`` rows, any other as one gemm
  per step.  A single gemm call may round a row differently depending on
  the row count and the row's position; fixed blocks make each output row a
  function of that row's inputs alone, which is what lets batched scoring
  and sampling equal one-at-a-time runs bitwise (``Network.step`` pads
  every step to whole blocks).  The same rule lets an
  evaluation compute a value once per distinct input row and pick its rows
  afterwards with the same bits: ``take`` picks rows of a value, and the
  optional ``rows`` operand of ``lstm``/``gru`` runs the input products on
  the distinct rows only;
* a parameter's gradient is summed over steps from the last to the first;
* adjoints are added in reverse node order, one term per consumer: a
  recurrent op returns the adjoint of its input as a list of per-gate terms
  and receives the adjoints of its outputs unsummed, so that it adds them
  where a step-by-step graph did.

The softmax, the cross-entropy and the gate activations work in place in
arrays their op allocated, with the same arithmetic in the same order; this
takes the values of one evaluation to share one floating type, as a
network's do.  :func:`backward` drops each node's adjoint once the node has
passed it on, so a training step holds its forward values and the adjoints
still to be passed on.

Finiteness is checked on every computed value, not on leaves: a NaN or
infinity in a bound input or a parameter is reported by the first op that
reads it, naming the first time step at which that op's value is not
finite.  Model files are checked for non-finite parameters at load.

The gates' sigmoid has no overflow and no branch per element (``_sigmoid``):
a select on random signs mispredicts a branch about every other element.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ROW_BLOCK",
    "Graph",
    "GraphError",
    "NonFiniteError",
    "ShapeError",
    "Workspace",
    "backward",
    "forward_eval",
]


ROW_BLOCK = 8  # rows per gemm call of a blocked matmul (module docstring)


class GraphError(Exception):
    """Base error for graph construction and evaluation problems."""


class ShapeError(GraphError):
    """Operand shapes are incompatible with a node's operation."""


class NonFiniteError(GraphError):
    """An operation produced NaN or infinity."""


class Node:
    """One operation in a graph.  Created through Graph methods only."""

    __slots__ = ("idx", "op", "name", "inputs", "arg")

    def __init__(self, idx, op, name, inputs, arg=None):
        self.idx = idx
        self.op = op
        self.name = name
        self.inputs = inputs
        self.arg = arg  # the part an "item" node picks

    def __repr__(self):
        return f"Node({self.idx}, {self.op!r}, {self.name!r})"


class Graph:
    """Computation DAG over dense arrays: nodes and named outputs, no values.

    Input and parameter values are passed to :func:`forward_eval`;
    :func:`backward` differentiates the scalar output ``"loss"``.
    """

    def __init__(self):
        self.nodes = []
        self.outputs = {}
        self._param_nodes = {}
        self._input_names = set()

    # -- leaves ------------------------------------------------------------

    def input(self, name):
        """Declare a leaf whose value is supplied in the eval bindings."""
        if name in self._input_names:
            raise GraphError(f"duplicate input name {name!r}")
        self._input_names.add(name)
        return self._append("input", name, ())

    def parameter(self, name):
        """Declare (or re-reference) a named parameter leaf."""
        if name not in self._param_nodes:
            self._param_nodes[name] = self._append("param", name, ())
        return self._param_nodes[name]

    @property
    def parameters(self):
        """Sorted names of the parameter leaves, each of which takes a gradient."""
        return sorted(self._param_nodes)

    # -- operations ----------------------------------------------------------

    def matmul(self, a, b, bias=None, name=None):
        """``a @ b`` of a (T, B, k) value and a (k, n) matrix, plus the
        optional bias vector (n,) broadcast over its rows: a layer's affine
        map in one node."""
        return self._append("matmul", name, (a, b) + _optional(bias))

    def mul(self, a, b, name=None):
        return self._append("mul", name, (a, b))

    def tanh(self, x, name=None):
        return self._append("tanh", name, (x,))

    def softmax(self, x, name=None):
        """Row-wise softmax, stabilised by subtracting the row maximum."""
        return self._append("softmax", name, (x,))

    def gather_rows(self, table, ids, name=None):
        """Select rows of `table` by a (T, B) integer array of ids."""
        return self._append("gather", name, (table, ids))

    def concat(self, parts, name=None):
        """Concatenate along the trailing (feature) axis."""
        if not parts:
            raise GraphError("concat needs at least one input")
        if len(parts) == 1:
            return parts[0]
        return self._append("concat", name, tuple(parts))

    def cross_entropy(self, logits, targets, name=None):
        """Fused softmax + negative log-likelihood of integer targets.

        Returns one loss value per row; never takes log of an explicit
        probability, so it is safe when the softmax saturates.
        """
        return self._append("xent", name, (logits, targets))

    def masked_mean(self, x, mask, name=None):
        """Scalar mean of a (T, B) array over the positions where `mask` is 1.

        The masked sum of each step is formed on its own and the steps are
        added in time order, then scaled by 1 / mask.sum().
        """
        return self._append("masked_mean", name, (x, mask))

    def take(self, x, rows, name=None):
        """Rows of x along its row axis (the one after time): ``x[:, rows]``.

        `rows` is a 1-D integer input; an evaluation graph that computes a
        value once per distinct word hands it to a per-state-row consumer
        this way.
        """
        return self._append("take", name, (x, rows))

    def lstm(self, x, h0, c0, W, U, b, name=None, rows=None):
        """LSTM over the time axis of x (T, B, in) from the state (h0, c0).

        W (4, in, H), U (4, H, H) and b (4, H) stack the weights of the
        gates g = i, f, o, c in that order; for each step

            i  = sigmoid(x W[0] + h U[0] + b[0])        input gate
            f  = sigmoid(x W[1] + h U[1] + b[1])        forget gate
            o  = sigmoid(x W[2] + h U[2] + b[2])        output gate
            c' = f*c + i*tanh(x W[3] + h U[3] + b[3])
            h' = o*tanh(c')

        The value stacks (h, c, i, f, o, tanh(x W[3] + h U[3] + b[3]),
        tanh(c)) of every step, shape (7, T, B, H); ``item(node, 0)`` is
        the hidden sequence and ``item(node, 1)`` the cell sequence.

        With `rows`, a 1-D integer input of B row ids, x holds distinct
        rows (T, D, in) and state row j reads x's row ``rows[j]``: the input
        products x W run on the D rows only.  It has no gradient, and the
        value stacks (h, c) only, shape (2, T, B, H), with the same bits.
        """
        return self._append("lstm", name, (x, h0, c0, W, U, b) + _optional(rows))

    def gru(self, x, h0, W, U, b, name=None, rows=None):
        """GRU over the time axis of x (T, B, in) from the state h0.

        W (3, in, H), U (3, H, H) and b (3, H) stack the weights of the
        gates g = z, r, h in that order; for each step

            z  = sigmoid(x W[0] + h U[0] + b[0])        update gate
            r  = sigmoid(x W[1] + h U[1] + b[1])        reset gate
            h' = (1-z)*h + z*tanh(x W[2] + (r*h) U[2] + b[2])

        The value stacks (h, z, r, tanh(...), r*h) of every step, shape
        (5, T, B, H); ``item(node, 0)`` is the hidden sequence.  `rows`
        is as in :meth:`lstm`; with it the value is (h,), shape
        (1, T, B, H).
        """
        return self._append("gru", name, (x, h0, W, U, b) + _optional(rows))

    def item(self, x, index, name=None):
        """Part `index` (along the leading axis) of a recurrent op's value."""
        return self._append("item", name, (x,), index)

    # -- designation -----------------------------------------------------------

    def mark_output(self, node, name):
        self.outputs[name] = node
        return node

    def _append(self, op, name, inputs, arg=None):
        for inp in inputs:
            if not isinstance(inp, Node) or self.nodes[inp.idx] is not inp:
                raise GraphError(f"input to {op!r} is not a node of this graph")
        node = Node(len(self.nodes), op, name or f"{op}_{len(self.nodes)}", inputs, arg)
        self.nodes.append(node)
        return node


def _optional(node):
    return () if node is None else (node,)


class Workspace:
    """Per-evaluation value storage for one graph."""

    def __init__(self, graph):
        self.graph = graph
        self.values = [None] * len(graph.nodes)

    def value(self, node):
        return self.values[node.idx]

    @property
    def outputs(self):
        return {name: self.values[node.idx] for name, node in self.graph.outputs.items()}


# -- the op table -----------------------------------------------------------


def _check_shapes(ok, node, *vals):
    if not ok:
        raise ShapeError(f"node {node.name!r} ({node.op}): "
                         + " vs ".join(str(v.shape) for v in vals))


def _check_ids(ids, limit, node, what):
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        raise GraphError(f"node {node.name!r} ({node.op}): {what} out of range for {limit}")


def _finite(v):
    # a finite sum means finite elements; a sum that overflows from finite
    # elements is rechecked element by element
    return math.isfinite(v.sum()) or bool(np.isfinite(v).all())


def _nonfinite(node, v=None, step=None):
    """The error for a non-finite value of `node`, naming the first time
    step (leading axis) at which `v` holds one, or `step`."""
    if step is None and v is not None and v.ndim >= 2:
        step = int(np.argmin(np.isfinite(v).reshape(len(v), -1).all(axis=1)))
    where = "" if step is None else f"time step {step}: "
    return NonFiniteError(f"{where}node {node.name!r} ({node.op}) produced a non-finite value")


def _sigmoid(x, out=None, scratch=None):
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, in one
    # pass: exp never overflows and -|x| == x exactly where x < 0.  The
    # numerator is max(e, x >= 0): 1 where x >= 0, since e <= 1 there, and e
    # elsewhere, since e >= 0; unlike a select on the sign it has no branch
    # to mispredict.  `out`, if given, must not overlap x; `scratch`, if
    # given, takes the denominator and may be x itself
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    positive = x >= 0
    d = np.add(1.0, e, out=scratch)
    return np.divide(np.maximum(e, positive, out=e), d, out=e)


def _softmax(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _rows(a, b):
    """``a @ b`` under the row rule, for `a` of shape (..., rows, k).

    With a multiple of ``ROW_BLOCK`` rows every block of ``ROW_BLOCK`` rows
    is one gemm; otherwise each (rows, k) matrix, one per time step, is one.
    `b` is (k, n) or a stack (G, k, n) of one matrix per gate, in which case
    the result is (G, ..., rows, n).
    """
    *lead, rows, k = a.shape
    gates = b.shape[:-2]
    if rows % ROW_BLOCK == 0:
        a = a.reshape(-1, ROW_BLOCK, k)
    if gates:
        b = b.reshape(*gates, *(1,) * (a.ndim - 2), *b.shape[-2:])
    return np.matmul(a, b).reshape(*gates, *lead, rows, b.shape[-1])


def _step_added(total, term):
    """`term` added onto a parameter's running gradient, None before the
    last step: in a loop from the last step to the first, the order in
    which a step-by-step backward adds a parameter's gradient."""
    if total is None:
        return term
    total += term
    return total


def _matmul(node, a, b, bias=None):
    _check_shapes(a.ndim == 3 and b.ndim == 2 and a.shape[-1] == b.shape[0]
                  and (bias is None or bias.shape == b.shape[1:]), node, a, b, *_optional(bias))
    y = _rows(a, b)
    if bias is not None:
        y += bias
    return y


def _matmul_grad(dy, y, a, b, bias=None):
    db = dbias = None
    for t in range(len(a) - 1, -1, -1):
        db = _step_added(db, a[t].T @ dy[t])
        dbias = None if bias is None else _step_added(dbias, dy[t].sum(axis=0))
    return (dy @ b.T, db) if bias is None else (dy @ b.T, db, dbias)


def _mul(node, a, b):
    _check_shapes(a.shape == b.shape, node, a, b)
    return a * b


def _gather(node, table, ids):
    _check_shapes(table.ndim == 2 and ids.ndim == 2, node, table, ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise GraphError(f"node {node.name!r} (gather): ids must be integers")
    _check_ids(ids, table.shape[0], node, "row id")
    return table[ids]


def _gather_grad(dy, y, table, ids):
    """Step by step from the last, each step's rows added into a block of
    only the rows it touches, then the block into the gradient."""
    g = np.zeros_like(table, dtype=dy.dtype)
    for t in range(len(ids) - 1, -1, -1):
        rows, where = np.unique(ids[t], return_inverse=True)
        block = np.zeros((len(rows), table.shape[1]), dtype=dy.dtype)
        np.add.at(block, where.reshape(-1), dy[t].reshape(-1, table.shape[1]))
        g[rows] += block
    return g, None


def _check_rows(node, x, rows):
    """`rows` picks rows of x along its row axis: 1-D integer ids in range."""
    _check_shapes(x.ndim >= 2 and rows.ndim == 1, node, x, rows)
    if not np.issubdtype(rows.dtype, np.integer):
        raise GraphError(f"node {node.name!r} ({node.op}): row ids must be integers")
    _check_ids(rows, x.shape[1], node, "row id")


def _take(node, x, rows):
    _check_rows(node, x, rows)
    return x[:, rows]


def _take_grad(dy, y, x, rows):
    dx = np.zeros_like(x, dtype=dy.dtype)
    np.add.at(dx, (slice(None), rows), dy)
    return dx, None


def _no_rows_gradient():
    raise GraphError("no gradient through the rows operand of a recurrent op:"
                     " it serves evaluation graphs only")


def _concat(node, *parts):
    _check_shapes(len({x.shape[:-1] for x in parts}) == 1, node, *parts)
    return np.concatenate(parts, axis=-1)


def _concat_grad(dy, y, *parts):
    return np.split(dy, np.cumsum([x.shape[-1] for x in parts[:-1]]), axis=-1)


def _xent(node, logits, targets):
    _check_shapes(logits.ndim == 3 and logits.shape[:-1] == targets.shape, node, logits, targets)
    _check_ids(targets, logits.shape[-1], node, "target id")
    logits = logits.reshape(-1, logits.shape[-1])
    m = logits.max(axis=1, keepdims=True)
    e = logits - m
    z = np.exp(e, out=e).sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    return (lse - logits[np.arange(logits.shape[0]), targets.reshape(-1)]).reshape(targets.shape)


def _xent_grad(dy, y, logits, targets):
    g = _softmax(logits.reshape(-1, logits.shape[-1]))
    g[np.arange(g.shape[0]), targets.reshape(-1)] -= 1.0
    g *= dy.reshape(-1, 1)
    return g.reshape(logits.shape), None


def _inverse_count(mask, dtype):
    return np.asarray(1.0 / mask.sum(dtype=np.float64), dtype=dtype)


def _masked_mean(node, x, mask):
    _check_shapes(x.ndim == 2 and x.shape == mask.shape, node, x, mask)
    # one masked sum per step, the steps added in order (Python's sum)
    return np.asarray(sum((x * mask).sum(axis=1)) * _inverse_count(mask, x.dtype))


def _masked_mean_grad(dy, y, x, mask):
    return mask * (dy * _inverse_count(mask, x.dtype)), None


def _input_products(node, gates, x, h0, W, U, b, rows):
    """Every step's input products x W, (G, T, B, H), after checking every
    operand's shape: x (T, B, in), h0 (B, H) and the stacked weights
    W (G, in, H), U (G, H, H) and b (G, H) of G gates.  With `rows` (B,),
    x is (T, D, in), the products run on its D rows and row j of a step is
    the product of x's row ``rows[j]``: by the row rule the bits of x[:,
    rows] W."""
    if rows is not None:
        _check_rows(node, x, rows)
    hidden = h0.shape[-1]
    batch = x.shape[1:2] if rows is None else rows.shape
    _check_shapes(x.ndim == 3 and h0.shape == (*batch, hidden)
                  and W.shape == (gates, x.shape[-1], hidden)
                  and U.shape == (gates, hidden, hidden) and b.shape == (gates, hidden),
                  node, x, h0, W, U, b)
    xw = _rows(x, W)
    # a gather along an inner axis by indexing is not C-contiguous; take is
    return xw if rows is None else np.take(xw, rows, axis=2)


def _check_step(node, t, *values):
    if not all(map(_finite, values)):
        raise _nonfinite(node, step=t)


def _carried(carry, terms, t):
    """A recurrent output's adjoint at step t: the carry from step t+1 (or a
    seed) first, then each consumer's term, as a step-by-step graph adds them."""
    for term in terms:
        carry = term[t] if carry is None else carry + term[t]
    return carry


def _lstm(node, x, h0, c0, W, U, b, rows=None):
    xw = _input_products(node, 4, x, h0, W, U, b, rows)
    _check_shapes(c0.shape == h0.shape, node, h0, c0)
    # an evaluation (`rows`, which has no gradient) keeps (h, c) only and
    # writes a step's gates into its input products; `pre` is scratch once
    # the gates are formed
    evaluation = rows is not None
    seq = np.empty((2 if evaluation else 7, *xw.shape[1:]), dtype=xw.dtype)
    b = b[:, None]
    h, c = h0, c0
    for t in range(len(x)):
        pre = _rows(h, U)
        pre += xw[:, t]
        pre += b
        _check_step(node, t, pre)
        gates = xw[:, t] if evaluation else seq[2:6, t]
        i, f, o = _sigmoid(pre[:3], out=gates[:3], scratch=pre[:3])
        c_hat = np.tanh(pre[3], out=gates[3])
        c = np.multiply(f, c, out=seq[1, t])
        c += np.multiply(i, c_hat, out=pre[0])
        _check_step(node, t, c)
        tanh_c = np.tanh(c, out=pre[0] if evaluation else seq[6, t])
        h = np.multiply(o, tanh_c, out=seq[0, t])
    return seq


def _previous(seq, first, t):
    """A recurrent state before step t: `first` (h0 or c0) at t = 0, else
    step t - 1 of `seq`, that state's sequence in the op's value."""
    return first if t == 0 else seq[t - 1]


def _lstm_grad(dy, seq, x, h0, c0, W, U, b, rows=None):
    if rows is not None:
        _no_rows_gradient()
    terms_h, terms_c = dy.get(0, []), dy.get(1, [])
    grad = np.empty((4, *seq.shape[2:]), dtype=seq.dtype)  # one step's pre-activation adjoints
    dx = np.empty((4, *x.shape), dtype=np.result_type(seq, W))
    WT, UT = W.transpose(0, 2, 1), U.transpose(0, 2, 1)
    dh = dc = dW = dU = db = None
    for t in range(len(x) - 1, -1, -1):
        dh = _carried(dh, terms_h, t)
        i, f, o, c_hat, tanh_c = seq[2:, t]
        d_tanh = (dh * o) * (1.0 - tanh_c * tanh_c)
        dc = _carried(dc, terms_c, t)
        dc = d_tanh if dc is None else dc + d_tanh
        d_ifo = np.stack([dc * c_hat, dc * _previous(seq[1], c0, t), dh * tanh_c])
        grad[3] = (dc * i) * (1.0 - c_hat * c_hat)
        grad[:3] = (d_ifo * seq[2:5, t]) * (1.0 - seq[2:5, t])
        dc = dc * f
        np.matmul(grad, WT, out=dx[:, t])
        dW = _step_added(dW, np.matmul(x[t].T, grad))
        dU = _step_added(dU, np.matmul(_previous(seq[0], h0, t).T, grad))
        db = _step_added(db, grad.sum(axis=1))
        hu = np.matmul(grad, UT)
        dh = ((hu[3] + hu[2]) + hu[1]) + hu[0]
    # x's adjoint as one term per gate, c first: the reverse of gate order
    return [dx[3], dx[2], dx[1], dx[0]], dh, dc, dW, dU, db


def _gru(node, x, h0, W, U, b, rows=None):
    xw = _input_products(node, 3, x, h0, W, U, b, rows)
    # an evaluation keeps h only, as in _lstm
    evaluation = rows is not None
    seq = np.empty((1 if evaluation else 5, *xw.shape[1:]), dtype=xw.dtype)
    h = h0
    for t in range(len(x)):
        pre = _rows(h, U[:2])
        pre += xw[:2, t]
        pre += b[:2, None]
        _check_step(node, t, pre)
        gates = xw[:, t] if evaluation else seq[1:4, t]
        z, r = _sigmoid(pre, out=gates[:2], scratch=pre)
        rh = np.multiply(r, h, out=pre[0] if evaluation else seq[4, t])
        pre_h = _rows(rh, U[2])
        pre_h += xw[2, t]
        pre_h += b[2]
        _check_step(node, t, pre_h)
        h_hat = np.tanh(pre_h, out=gates[2])
        h_new = np.multiply(np.subtract(1.0, z, out=pre_h), h, out=seq[0, t])
        h_new += np.multiply(z, h_hat, out=pre_h)  # pre_h is scratch after the tanh
        h = h_new
    return seq


def _gru_grad(dy, seq, x, h0, W, U, b, rows=None):
    if rows is not None:
        _no_rows_gradient()
    terms_h = dy.get(0, [])
    grad = np.empty((3, *seq.shape[2:]), dtype=seq.dtype)  # one step's pre-activation adjoints
    dx = np.empty((3, *x.shape), dtype=np.result_type(seq, W))
    WT, UT = W.transpose(0, 2, 1), U.transpose(0, 2, 1)
    dh = dW = dU_zr = dU_h = db = None
    for t in range(len(x) - 1, -1, -1):
        dh = _carried(dh, terms_h, t)
        z, r, h_hat = seq[1:4, t]
        hp = _previous(seq[0], h0, t)
        grad[2] = (dh * z) * (1.0 - h_hat * h_hat)
        d_rh = grad[2] @ UT[2]
        d_zr = np.stack([dh * h_hat - dh * hp, d_rh * hp])
        grad[:2] = (d_zr * seq[1:3, t]) * (1.0 - seq[1:3, t])
        np.matmul(grad, WT, out=dx[:, t])
        dW = _step_added(dW, np.matmul(x[t].T, grad))
        dU_zr = _step_added(dU_zr, np.matmul(hp.T, grad[:2]))
        dU_h = _step_added(dU_h, seq[4, t].T @ grad[2])
        db = _step_added(db, grad.sum(axis=1))
        hu = np.matmul(grad[:2], UT[:2])
        dh = ((dh * (1.0 - z) + d_rh * r) + hu[1]) + hu[0]
    dU = np.empty_like(U, dtype=grad.dtype)
    dU[:2], dU[2] = dU_zr, dU_h
    # x's adjoint as one term per gate, h first: the reverse of gate order
    return [dx[2], dx[1], dx[0]], dh, dW, dU, db


# op -> (forward(node, *inputs) -> value, backward(dy, value, *inputs) ->
# one gradient per input, None where the input is integer ids, targets or a
# mask, a list of terms where a fused op stands for several consumers).  An
# lstm/gru backward receives dy as {part: [adjoint terms]}, which the
# engine collects from the item nodes that pick the parts.
_OPS = {
    "matmul": (_matmul, _matmul_grad),
    "mul": (_mul, lambda dy, y, a, b: (dy * b, dy * a)),
    "tanh": (lambda node, x: np.tanh(x), lambda dy, y, x: (dy * (1.0 - y * y),)),
    "softmax": (lambda node, x: _softmax(x),
                lambda dy, y, x: (y * (dy - (dy * y).sum(axis=-1, keepdims=True)),)),
    "gather": (_gather, _gather_grad),
    "concat": (_concat, _concat_grad),
    "xent": (_xent, _xent_grad),
    "masked_mean": (_masked_mean, _masked_mean_grad),
    "lstm": (_lstm, _lstm_grad),
    "gru": (_gru, _gru_grad),
    "item": (lambda node, x: x[node.arg], None),  # backward() routes its adjoint
    "take": (_take, _take_grad),
}

# ops whose values are not checked after the op: recurrent ops check each
# step themselves, to name it, and an item or a take is a part of a checked
# value
_SELF_CHECKED = frozenset({"lstm", "gru", "item", "take"})


def forward_eval(graph, bindings, params):
    """Evaluate every node and return the populated :class:`Workspace`.

    `bindings` must supply every input leaf by name and `params` every
    parameter leaf; a missing one is a :class:`GraphError` naming it.
    Raises :class:`ShapeError` naming the offending node on incompatible
    operands and :class:`NonFiniteError` naming the first node that computes
    a non-finite value and the first time step at which it does.
    """
    ws = Workspace(graph)
    vals = ws.values
    for node in graph.nodes:
        op = node.op
        if op == "input":
            if node.name not in bindings:
                raise GraphError(f"no binding for input {node.name!r}")
            v = np.asarray(bindings[node.name])
        elif op == "param":
            if node.name not in params:
                raise GraphError(f"no value for parameter {node.name!r}")
            v = np.asarray(params[node.name])
        else:
            v = _OPS[op][0](node, *[vals[i.idx] for i in node.inputs])
            if op not in _SELF_CHECKED and not _finite(v):
                raise _nonfinite(node, v)
        vals[node.idx] = v
    return ws


def backward(graph, ws):
    """Reverse-mode gradients of the scalar output ``"loss"``:
    ``{parameter name: gradient}``.

    The adjoint starts at one on the loss; bound inputs (ids, targets,
    masks) take none.
    """
    vals = ws.values
    if ws.graph is not graph or any(v is None for v in vals):
        raise GraphError("forward values missing; run forward_eval on this graph first")
    if "loss" not in graph.outputs:
        raise GraphError("no loss output")
    loss = vals[graph.outputs["loss"].idx]
    if loss.size != 1:
        raise GraphError("loss output is not scalar")
    # an item node's adjoint is the list of its terms, passed on unsummed
    adj = [None] * len(graph.nodes)
    adj[graph.outputs["loss"].idx] = np.ones_like(loss)
    # sorted order keeps downstream float accumulation (e.g. the global clip
    # norm) independent of hash randomization across processes
    grads = {name: np.zeros_like(vals[graph._param_nodes[name].idx])
             for name in graph.parameters}

    for node in reversed(graph.nodes):
        dy, adj[node.idx] = adj[node.idx], None  # each adjoint is passed on once
        if dy is None or node.op in ("input", "param"):
            continue
        ins = node.inputs
        if node.op == "item":
            parts = adj[ins[0].idx] = adj[ins[0].idx] or {}
            parts[node.arg] = dy
            continue
        _pass_on(_OPS[node.op][1](dy, vals[node.idx], *[vals[i.idx] for i in ins]),
                 ins, adj, grads, vals)
    return grads


def _pass_on(gradients, ins, adj, grads, vals):
    """Add one op's input gradients to its inputs' adjoints, or to the
    parameter gradients.  A function of its own so that the gradients are
    freed when it returns, before the next op's backward allocates."""
    for inp, g in zip(ins, gradients):
        if g is None or inp.op == "input":
            continue
        terms = g if isinstance(g, list) else [g]
        if inp.op == "item":
            adj[inp.idx] = (adj[inp.idx] or []) + terms
            continue
        if inp.op == "param":
            target = grads[inp.name]
        else:
            if adj[inp.idx] is None:
                # the first term too is added onto zeros: 0.0 + -0.0 is +0.0
                adj[inp.idx] = np.zeros_like(vals[inp.idx], dtype=terms[0].dtype)
            target = adj[inp.idx]
        for term in terms:
            target += term
