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

Every other op is one entry of the table ``_OPS = {op: _Op(forward,
backward, ...)}``: ``forward(node, *inputs)`` checks shapes and id ranges
and returns the value, ``backward(dy, value, *inputs)`` returns one gradient
per input (``None`` for integer ids, targets and masks), and the rest
declares what the backward reads and what each may write over.  :func:`forward_eval`
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
step's gates after them, formed over that step's input products, which
are made in their place; the backward forms ``tanh(c)`` and ``r*h`` again
from the stored states, with the same bits.  An evaluation, a recurrent
op given the ``rows`` operand (which has no gradient), keeps those state
sequences only: each step writes its gates into arrays that die with the
step, its input products once added and its pre-activations, so an
evaluation holds about what it returns.

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
passed it on.

A graph with a loss has one lifetime plan (``_Lifetimes``), made once from
what each op declares its backward reads: its own value, and which of its
inputs (a ``mul`` reads each operand only for the other's gradient, so
the value a dropout mask multiplies is not read).  Under it
:func:`forward_eval` drops a value after its last forward reader when no
backward reads it, and :func:`backward` drops each value after its last
backward reader; a dropped value leaves a stand-in of its shape and type
that holds one element, and the graph's outputs and parameters are never
dropped.  An op writes over an input that nothing reads after it, when
that input is an array of the workspace's own that no ``item`` views:
``tanh`` over its matmul's output, the cross-entropy's gradient over the
logits.  The ``tanh`` and ``mul`` backwards write over dy, and a sum of
adjoint terms adopts its first term when an op returned it (``term +=
0.0`` has the bits of ``0.0 + term``).  So a training step holds the
forward values its backward reads and the adjoints still to be passed on.
A graph without a loss keeps every value.

Finiteness is checked on every computed value, not on leaves: a NaN or
infinity in a bound input or a parameter is reported by the first op that
reads it, naming the first time step at which that op's value is not
finite.  Model files are checked for non-finite parameters at load.

The gates' sigmoid has no overflow and no branch per element (``_sigmoid``):
a select on random signs mispredicts a branch about every other element.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
        self._lifetimes = None  # made by _lifetimes(), dropped on any change

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

        The value stacks (h, c, i, f, o, tanh(x W[3] + h U[3] + b[3])) of
        every step, shape (6, T, B, H); ``item(node, 0)`` is the hidden
        sequence and ``item(node, 1)`` the cell sequence.

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

        The value stacks (h, z, r, tanh(...)) of every step, shape
        (4, T, B, H); ``item(node, 0)`` is the hidden sequence.  `rows`
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
        self._lifetimes = None
        return node

    def _append(self, op, name, inputs, arg=None):
        for inp in inputs:
            if not isinstance(inp, Node) or self.nodes[inp.idx] is not inp:
                raise GraphError(f"input to {op!r} is not a node of this graph")
        self._lifetimes = None
        node = Node(len(self.nodes), op, name or f"{op}_{len(self.nodes)}", inputs, arg)
        self.nodes.append(node)
        return node


def _optional(node):
    return () if node is None else (node,)


class Workspace:
    """Per-evaluation value storage for one graph.

    `lifetimes` is the plan the values were evaluated under (None if every
    value was kept); `spent` is set once a backward pass has begun to drop
    and write over them.
    """

    def __init__(self, graph):
        self.graph = graph
        self.values = [None] * len(graph.nodes)
        self.lifetimes = None
        self.spent = False

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


def _softmax(x, out=None):
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _rows(a, b, out=None):
    """``a @ b`` under the row rule, for `a` of shape (..., rows, k).

    With a multiple of ``ROW_BLOCK`` rows every block of ``ROW_BLOCK`` rows
    is one gemm; otherwise each (rows, k) matrix, one per time step, is one.
    `b` is (k, n) or a stack (G, k, n) of one matrix per gate, in which case
    the result is (G, ..., rows, n); `out`, if given, is a C-contiguous
    array of that shape, which takes the result.
    """
    *lead, rows, k = a.shape
    gates = b.shape[:-2]
    if rows % ROW_BLOCK == 0:
        a = a.reshape(-1, ROW_BLOCK, k)
    if gates:
        b = b.reshape(*gates, *(1,) * (a.ndim - 2), *b.shape[-2:])
    if out is not None:
        out = out.reshape(*gates, *a.shape[:-1], b.shape[-1])
    return np.matmul(a, b, out=out).reshape(*gates, *lead, rows, b.shape[-1])


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


def _over(out, *operands):
    """`out` where the result of `operands` has its type, else None: a dead
    array that a result is written over must not round it."""
    return out if out is not None and out.dtype == np.result_type(*operands) else None


def _mul(node, a, b):
    _check_shapes(a.shape == b.shape, node, a, b)
    return a * b


def _mul_grad(dy, y, a, b, out=None):
    """None for the gradient of an operand whose partner is passed as None
    (the engine does so where the operand takes no gradient); `out`, if
    given, is dy, written over last."""
    db = None if a is None else dy * a
    return (None if b is None else np.multiply(dy, b, out=_over(out, dy, b))), db


def _tanh_grad(dy, y, x, out=None):
    """`out`, if given, is dy, written over."""
    return (np.multiply(dy, 1.0 - y * y, out=_over(out, dy, y)),)


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
    loss = np.empty(targets.shape, logits.dtype)
    for t, step in enumerate(logits):  # a step at a time: no logits-sized scratch
        m = step.max(axis=1, keepdims=True)
        e = step - m
        z = np.exp(e, out=e).sum(axis=1, keepdims=True)
        loss[t] = (m[:, 0] + np.log(z[:, 0])) - step[np.arange(len(step)), targets[t]]
    return loss


def _xent_grad(dy, y, logits, targets, out=None):
    """`out`, if given, is `logits`, written over."""
    flat = logits.reshape(-1, logits.shape[-1])
    g = _softmax(flat, out=None if out is None else out.reshape(flat.shape))
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


def _input_products(node, gates, x, h0, W, U, b, rows, states):
    """A recurrent op's value, uninitialised, and every step's input
    products x W, (G, T, B, H), after checking every operand's shape: x
    (T, B, in), h0 (B, H) and the stacked weights W (G, in, H), U (G, H, H)
    and b (G, H) of G gates.  The value stacks `states` state sequences
    and, in training, G more, which the products take: each step writes
    its gates over its own products.  With `rows` (B,), an evaluation, x is
    (T, D, in), the products run on its D rows and row j of a step is the
    product of x's row ``rows[j]``: by the row rule the bits of x[:, rows]
    W; the value holds the state sequences only."""
    if rows is not None:
        _check_rows(node, x, rows)
    hidden = h0.shape[-1]
    batch = x.shape[1:2] if rows is None else rows.shape
    _check_shapes(x.ndim == 3 and h0.shape == (*batch, hidden)
                  and W.shape == (gates, x.shape[-1], hidden)
                  and U.shape == (gates, hidden, hidden) and b.shape == (gates, hidden),
                  node, x, h0, W, U, b)
    if rows is None:
        seq = np.empty((states + gates, len(x), *batch, hidden), np.result_type(x, W))
        return seq, _rows(x, W, out=seq[states:])
    # a gather along an inner axis by indexing is not C-contiguous; take is
    xw = np.take(_rows(x, W), rows, axis=2)
    return np.empty((states, *xw.shape[1:]), xw.dtype), xw


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
    # a step writes its gates over its input products, which training keeps
    # in its value; `pre` is scratch once the gates are formed
    seq, xw = _input_products(node, 4, x, h0, W, U, b, rows, 2)
    _check_shapes(c0.shape == h0.shape, node, h0, c0)
    b = b[:, None]
    h, c = h0, c0
    for t in range(len(x)):
        pre = _rows(h, U)
        pre += xw[:, t]
        pre += b
        _check_step(node, t, pre)
        gates = xw[:, t]
        i, f, o = _sigmoid(pre[:3], out=gates[:3], scratch=pre[:3])
        c_hat = np.tanh(pre[3], out=gates[3])
        c = np.multiply(f, c, out=seq[1, t])
        c += np.multiply(i, c_hat, out=pre[0])
        _check_step(node, t, c)
        tanh_c = np.tanh(c, out=pre[0])  # the backward forms it again from c
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
        i, f, o, c_hat = seq[2:, t]
        tanh_c = np.tanh(seq[1, t])  # the forward's tanh(c), bit for bit
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
    seq, xw = _input_products(node, 3, x, h0, W, U, b, rows, 1)  # as in _lstm
    h = h0
    for t in range(len(x)):
        pre = _rows(h, U[:2])
        pre += xw[:2, t]
        pre += b[:2, None]
        _check_step(node, t, pre)
        gates = xw[:, t]
        z, r = _sigmoid(pre, out=gates[:2], scratch=pre)
        rh = np.multiply(r, h, out=pre[0])  # the backward forms it again
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
        dU_h = _step_added(dU_h, (r * hp).T @ grad[2])  # the forward's r*h
        db = _step_added(db, grad.sum(axis=1))
        hu = np.matmul(grad[:2], UT[:2])
        dh = ((dh * (1.0 - z) + d_rh * r) + hu[1]) + hu[0]
    dU = np.empty_like(U, dtype=grad.dtype)
    dU[:2], dU[2] = dU_zr, dU_h
    # x's adjoint as one term per gate, h first: the reverse of gate order
    return [dx[2], dx[1], dx[0]], dh, dW, dU, db


class _Op(NamedTuple):
    """One op's rules, and what the lifetime plan of a graph with a loss
    reads of them (module docstring).  A bare (forward, backward) pair
    declares nothing: its backward reads its own value and every input, and
    it writes over nothing."""

    forward: object
    backward: object
    value: bool = False  # whether the backward reads the op's own value
    # per input, whether the backward reads it: True, False (at most its
    # shape and type; so for inputs past the tuple), or (k,) where only the
    # gradient of input k reads it; it is then passed as None where input k
    # takes no gradient
    reads: tuple = ()
    over: int | None = None  # an input the forward may write its value over
    grad_over: int | str | None = None  # "dy", or an input the backward may write over


# op -> _Op(forward(node, *inputs) -> value, backward(dy, value, *inputs) ->
# one gradient per input, None where the input is integer ids, targets or a
# mask, a list of terms where a fused op stands for several consumers).  An
# lstm/gru backward receives dy as {part: [adjoint terms]}, which the
# engine collects from the item nodes that pick the parts.  A rule that may
# write over a dead array takes it as `out`, which only the engine passes.
_OPS = {
    "matmul": _Op(_matmul, _matmul_grad, reads=(True, True)),
    "mul": _Op(_mul, _mul_grad, reads=((1,), (0,)), grad_over="dy"),
    "tanh": _Op(lambda node, x, out=None: np.tanh(x, out=out), _tanh_grad, value=True,
                over=0, grad_over="dy"),
    "softmax": _Op(lambda node, x: _softmax(x),
                   lambda dy, y, x: (y * (dy - (dy * y).sum(axis=-1, keepdims=True)),),
                   value=True),
    "gather": _Op(_gather, _gather_grad, reads=(False, True)),
    "concat": _Op(_concat, _concat_grad),
    "xent": _Op(_xent, _xent_grad, reads=(True, True), grad_over=0),
    "masked_mean": _Op(_masked_mean, _masked_mean_grad, reads=(False, True)),
    "lstm": _Op(_lstm, _lstm_grad, value=True, reads=(True,) * 5),
    "gru": _Op(_gru, _gru_grad, value=True, reads=(True,) * 4),
    "item": _Op(lambda node, x: x[node.arg], None),  # backward() routes its adjoint
    "take": _Op(_take, _take_grad, reads=(False, True)),
}

# ops whose values are not checked after the op: recurrent ops check each
# step themselves, to name it, and an item or a take is a part of a checked
# value
_SELF_CHECKED = frozenset({"lstm", "gru", "item", "take"})


class _Lifetimes:
    """The lifetime plan of a graph with a loss (module docstring), one
    entry per node in graph order.  ``forward[i]`` is (the input node i's
    forward writes over or None, the values dropped after it);
    ``backward[i]`` is (the inputs its backward is passed as None, "dy" or
    the input it writes over or None, whether it owns the gradients it
    returns, the values dropped after it)."""

    def __init__(self, graph):
        nodes = graph.nodes
        # outputs stay readable, and the parameters are the caller's
        kept = {node.idx for node in graph.outputs.values()}
        kept.update(node.idx for node in nodes if node.op == "param")
        takes = []  # whether a node takes a gradient: a parameter or what reads one
        last_forward = [None] * len(nodes)  # the last node to read each value
        viewed = set()  # values that item nodes are views of
        for node in nodes:
            takes.append(node.op == "param" or any(takes[i.idx] for i in node.inputs))
            for inp in node.inputs:
                last_forward[inp.idx] = node.idx
            if node.op == "item":
                viewed.add(node.inputs[0].idx)
        runs = {graph.outputs["loss"].idx}  # the nodes whose backward may run
        last_backward = [None] * len(nodes)  # the last backward to read each value
        passed_none = [()] * len(nodes)
        for node in reversed(nodes):
            if node.idx not in runs or node.op in ("input", "param"):
                continue
            runs.update(i.idx for i in node.inputs)
            rule = _OPS[node.op]
            if node.op == "item":
                continue
            reads = rule.reads if isinstance(rule, _Op) else (True,) * len(node.inputs)
            if not isinstance(rule, _Op) or rule.value:
                last_backward[node.idx] = node.idx
            for k, inp in enumerate(node.inputs):
                read = reads[k] if k < len(reads) else False
                if isinstance(read, tuple):
                    read = takes[node.inputs[read[0]].idx]
                    passed_none[node.idx] += () if read else (k,)
                if read:
                    last_backward[inp.idx] = node.idx

        # the node after whose forward, or backward, each value is dropped
        dies = ([f if b is None else None for f, b in zip(last_forward, last_backward)],
                last_backward)

        def over(node, k, phase):
            """k if `node` may write over its input k in this phase: it reads
            that input once and last, an array of the workspace's own that
            nothing views; else None.  "dy" is always the node's own."""
            if not isinstance(k, int):
                return k
            inp = node.inputs[k]
            own = inp.op != "item" and isinstance(_OPS.get(inp.op), _Op)
            return k if (own and inp.idx not in kept and inp.idx not in viewed
                         and dies[phase][inp.idx] == node.idx
                         and node.inputs.count(inp) == 1) else None

        dropped = [[] for _ in nodes], [[] for _ in nodes]
        for phase in (0, 1):
            for i, at in enumerate(dies[phase]):
                if at is not None and i not in kept:
                    dropped[phase][at].append(i)
        self.forward, self.backward = [], []
        for node in nodes:
            rule = _OPS.get(node.op)
            declared = isinstance(rule, _Op)
            self.forward.append((over(node, rule.over if declared else None, 0),
                                 tuple(dropped[0][node.idx])))
            self.backward.append((passed_none[node.idx],
                                  over(node, rule.grad_over if declared else None, 1),
                                  declared, tuple(dropped[1][node.idx])))


def _lifetimes(graph):
    """The lifetime plan of `graph`, made once; None for a graph without a loss."""
    if "loss" not in graph.outputs:
        return None
    if graph._lifetimes is None:
        graph._lifetimes = _Lifetimes(graph)
    return graph._lifetimes


def _husk(v):
    """What a dropped value leaves: a read-only stand-in of its shape and
    type that holds one element."""
    return np.broadcast_to(np.zeros((), v.dtype), v.shape)


def forward_eval(graph, bindings, params):
    """Evaluate every node and return the populated :class:`Workspace`.

    `bindings` must supply every input leaf by name and `params` every
    parameter leaf; a missing one is a :class:`GraphError` naming it.
    Raises :class:`ShapeError` naming the offending node on incompatible
    operands and :class:`NonFiniteError` naming the first node that computes
    a non-finite value and the first time step at which it does.  A graph
    with a loss is evaluated under its lifetime plan: the values that its
    backward pass does not read are dropped once the forward has read them.
    """
    ws = Workspace(graph)
    vals = ws.values
    plan = ws.lifetimes = _lifetimes(graph)
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
        elif plan is None:
            v = _OPS[op][0](node, *[vals[i.idx] for i in node.inputs])
            if op not in _SELF_CHECKED and not _finite(v):
                raise _nonfinite(node, v)
        else:
            v = _planned_forward(node, vals, *plan.forward[node.idx])
        vals[node.idx] = v
    return ws


def _planned_forward(node, vals, over, dropped):
    """One node's value under a lifetime plan: written over its input
    `over`, if given, and the `dropped` values dropped after."""
    args = [vals[i.idx] for i in node.inputs]
    forward = _OPS[node.op][0]
    v = forward(node, *args) if over is None else forward(node, *args, out=args[over])
    if node.op not in _SELF_CHECKED and not _finite(v):
        raise _nonfinite(node, v)
    for i in dropped:
        vals[i] = _husk(vals[i])
    return v


def backward(graph, ws):
    """Reverse-mode gradients of the scalar output ``"loss"``:
    ``{parameter name: gradient}``.

    The adjoint starts at one on the loss; bound inputs (ids, targets,
    masks) take none.  The pass drops each forward value after its last
    reader and writes over dead ones, so it consumes the workspace: a
    second pass over it is a :class:`GraphError`.  The graph's outputs
    stay readable.
    """
    vals = ws.values
    if ws.graph is not graph or any(v is None for v in vals):
        raise GraphError("forward values missing; run forward_eval on this graph first")
    if ws.spent:
        raise GraphError("workspace already consumed by a backward pass;"
                         " run forward_eval again")
    if "loss" not in graph.outputs:
        raise GraphError("no loss output")
    loss = vals[graph.outputs["loss"].idx]
    if loss.size != 1:
        raise GraphError("loss output is not scalar")
    # a forward without a loss kept every value, so the graph's plan holds
    plan = ws.lifetimes or _lifetimes(graph)
    ws.spent = True
    # an item node's adjoint is the list of its terms, passed on unsummed
    adj = [None] * len(graph.nodes)
    adj[graph.outputs["loss"].idx] = np.ones_like(loss)
    # sorted order keeps downstream float accumulation (e.g. the global clip
    # norm) independent of hash randomization across processes
    grads = dict.fromkeys(graph.parameters)

    for node in reversed(graph.nodes):
        dy, adj[node.idx] = adj[node.idx], None  # each adjoint is passed on once
        if dy is None or node.op in ("input", "param"):
            continue
        ins = node.inputs
        if node.op == "item":
            parts = adj[ins[0].idx] = adj[ins[0].idx] or {}
            parts[node.arg] = dy
            continue
        passed_none, over, owned, dropped = plan.backward[node.idx]
        args = [vals[i.idx] for i in ins]
        for k in passed_none:
            args[k] = None
        rule = _OPS[node.op][1]
        gradients = (rule(dy, vals[node.idx], *args) if over is None else
                     rule(dy, vals[node.idx], *args, out=dy if over == "dy" else args[over]))
        _pass_on(gradients, ins, adj, grads, vals, owned)
        for i in dropped:
            vals[i] = _husk(vals[i])
    for name, g in grads.items():
        if g is None:  # a parameter the loss does not read
            grads[name] = np.zeros_like(vals[graph._param_nodes[name].idx])
    return grads


def _pass_on(gradients, ins, adj, grads, vals, owned):
    """Add one op's input gradients to its inputs' adjoints, or to the
    parameter gradients.  A sum's first term is adopted where the op `owned`
    it and it has the sum's shape (and, for a parameter, its type); any
    other first term is added onto zeros.  A function of its own so that the
    gradients are freed when it returns, before the next op's backward
    allocates."""
    for inp, g in zip(ins, gradients):
        if g is None or inp.op == "input":
            continue
        terms = g if isinstance(g, list) else [g]
        if inp.op == "item":
            adj[inp.idx] = (adj[inp.idx] or []) + terms
            continue
        param = inp.op == "param"
        total, like = grads[inp.name] if param else adj[inp.idx], vals[inp.idx]
        for term in terms:
            if total is not None:
                total += term
            elif owned and term.shape == like.shape and (not param or term.dtype == like.dtype):
                term += 0.0  # the bits of 0.0 + term: -0.0 becomes +0.0
                total = term
            else:
                total = np.zeros_like(like, dtype=None if param else term.dtype)
                total += term
        if param:
            grads[inp.name] = total
        else:
            adj[inp.idx] = total
