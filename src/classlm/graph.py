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
input (``None`` for integer ids and targets).  :func:`forward_eval` and
:func:`backward` are loops over that table.

Finiteness is checked on every computed value, not on leaves: a NaN or
infinity in a bound input or a parameter is reported by the first op that
reads it.  Model files are checked for non-finite parameters at load.

A matmul whose left operand has a multiple of ``ROW_BLOCK`` rows runs as
one gemm per block of ``ROW_BLOCK`` rows.  A single gemm call may round a
row differently depending on the row count and the row's position; fixed
blocks make each output row a function of that row's inputs alone, which
is what lets batched scoring and sampling equal one-at-a-time runs
bitwise.  Other row counts, such as a partial training batch, use one plain
product.
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
    "finite_difference_check",
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

    __slots__ = ("idx", "op", "name", "inputs")

    def __init__(self, idx, op, name, inputs):
        self.idx = idx
        self.op = op
        self.name = name
        self.inputs = inputs

    def __repr__(self):
        return f"Node({self.idx}, {self.op!r}, {self.name!r})"


class Graph:
    """Computation DAG over dense arrays: nodes and named outputs, no values.

    Input and parameter values are passed to :func:`forward_eval`; the
    scalar output ``"loss"`` is what :func:`backward` seeds by default.
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

    def matmul(self, a, b, name=None):
        return self._append("matmul", name, (a, b))

    def add(self, a, b, name=None):
        return self._append("add", name, (a, b))

    def mul(self, a, b, name=None):
        return self._append("mul", name, (a, b))

    def add_bias(self, x, b, name=None):
        """Broadcast-add a bias vector over the rows of a matrix."""
        return self._append("add_bias", name, (x, b))

    def sigmoid(self, x, name=None):
        return self._append("sigmoid", name, (x,))

    def tanh(self, x, name=None):
        return self._append("tanh", name, (x,))

    def one_minus(self, x, name=None):
        """Elementwise 1 - x (gate complement)."""
        return self._append("one_minus", name, (x,))

    def softmax(self, x, name=None):
        """Row-wise softmax, stabilised by subtracting the row maximum."""
        return self._append("softmax", name, (x,))

    def gather_rows(self, table, ids, name=None):
        """Select rows of `table` by the integer vector `ids`."""
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

    def sum(self, x, name=None):
        """Reduce to a scalar."""
        return self._append("sum", name, (x,))

    # -- designation -----------------------------------------------------------

    def mark_output(self, node, name):
        self.outputs[name] = node
        return node

    def _append(self, op, name, inputs):
        for inp in inputs:
            if not isinstance(inp, Node) or self.nodes[inp.idx] is not inp:
                raise GraphError(f"input to {op!r} is not a node of this graph")
        node = Node(len(self.nodes), op, name or f"{op}_{len(self.nodes)}", inputs)
        self.nodes.append(node)
        return node


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


def _sigmoid(x):
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, in one
    # pass: exp never overflows and -|x| == x exactly where x < 0
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softmax(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _matmul(node, a, b):
    _check_shapes(a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0], node, a, b)
    m, k = a.shape
    if m % ROW_BLOCK:
        return a @ b
    # one gemm per 8-row block: a row's bits depend on its own inputs only
    return (a.reshape(-1, ROW_BLOCK, k) @ b).reshape(m, b.shape[1])


def _elementwise(fn):
    def forward(node, a, b):
        _check_shapes(a.shape == b.shape, node, a, b)
        return fn(a, b)
    return forward


def _add_bias(node, x, b):
    _check_shapes(x.ndim == 2 and b.ndim == 1 and x.shape[1] == b.shape[0], node, x, b)
    return x + b


def _gather(node, table, ids):
    _check_shapes(table.ndim == 2 and ids.ndim == 1, node, table, ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise GraphError(f"node {node.name!r} (gather): ids must be integers")
    _check_ids(ids, table.shape[0], node, "row id")
    return table[ids]


def _gather_grad(dy, y, table, ids):
    g = np.zeros_like(table, dtype=dy.dtype)
    np.add.at(g, ids, dy)
    return g, None


def _concat(node, *parts):
    _check_shapes(len({x.shape[:-1] for x in parts}) == 1, node, *parts)
    return np.concatenate(parts, axis=-1)


def _concat_grad(dy, y, *parts):
    return np.split(dy, np.cumsum([x.shape[-1] for x in parts[:-1]]), axis=-1)


def _xent(node, logits, targets):
    _check_shapes(logits.ndim == 2 and targets.ndim == 1
                  and logits.shape[0] == targets.shape[0], node, logits, targets)
    _check_ids(targets, logits.shape[1], node, "target id")
    m = logits.max(axis=1, keepdims=True)
    z = np.exp(logits - m).sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    return lse - logits[np.arange(logits.shape[0]), targets]


def _xent_grad(dy, y, logits, targets):
    g = _softmax(logits)
    g[np.arange(g.shape[0]), targets] -= 1.0
    return g * dy[:, None], None


# op -> (forward(node, *inputs) -> value, backward(dy, value, *inputs) ->
# one gradient per input, None where the input is integer ids or targets)
_OPS = {
    "matmul": (_matmul, lambda dy, y, a, b: (dy @ b.T, a.T @ dy)),
    "add": (_elementwise(np.add), lambda dy, y, a, b: (dy, dy)),
    "mul": (_elementwise(np.multiply), lambda dy, y, a, b: (dy * b, dy * a)),
    "add_bias": (_add_bias, lambda dy, y, x, b: (dy, dy.sum(axis=0))),
    "sigmoid": (lambda node, x: _sigmoid(x), lambda dy, y, x: (dy * y * (1.0 - y),)),
    "tanh": (lambda node, x: np.tanh(x), lambda dy, y, x: (dy * (1.0 - y * y),)),
    "one_minus": (lambda node, x: 1.0 - x, lambda dy, y, x: (-dy,)),
    "softmax": (lambda node, x: _softmax(x),
                lambda dy, y, x: (y * (dy - (dy * y).sum(axis=-1, keepdims=True)),)),
    "gather": (_gather, _gather_grad),
    "concat": (_concat, _concat_grad),
    "xent": (_xent, _xent_grad),
    "sum": (lambda node, x: np.asarray(x.sum()),
            lambda dy, y, x: (np.full(x.shape, dy, dtype=x.dtype),)),
}


def forward_eval(graph, bindings, params):
    """Evaluate every node and return the populated :class:`Workspace`.

    `bindings` must supply every input leaf by name and `params` every
    parameter leaf; a missing one is a :class:`GraphError` naming it.
    Raises :class:`ShapeError` naming the offending node on incompatible
    operands and :class:`NonFiniteError` naming the first node that computes
    a non-finite value.
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
            # a finite sum means finite elements; a sum that overflows from
            # finite elements is rechecked element by element
            if not math.isfinite(v.sum()) and not np.isfinite(v).all():
                raise NonFiniteError(f"node {node.name!r} ({op}) produced a non-finite value")
        vals[node.idx] = v
    return ws


def backward(graph, ws, seeds=None, grads=None, wrt=()):
    """Reverse-mode gradients; returns ``(grads, adjoints)``.

    Adjoints start from `seeds` ({output name: adjoint}; default: one on the
    scalar output ``"loss"``).  Parameter gradients are added into `grads`
    (default: zeros per parameter); `adjoints` maps each input named in
    `wrt` that a seed reaches to its adjoint.
    """
    vals = ws.values
    if ws.graph is not graph or any(v is None for v in vals):
        raise GraphError("forward values missing; run forward_eval on this graph first")
    if seeds is None:
        if "loss" not in graph.outputs:
            raise GraphError("no loss output")
        loss = vals[graph.outputs["loss"].idx]
        if loss.size != 1:
            raise GraphError("loss output is not scalar")
        seeds = {"loss": np.ones_like(loss)}
    adj = [None] * len(graph.nodes)
    for name, value in seeds.items():
        adj[graph.outputs[name].idx] = np.array(value)
    if grads is None:
        # sorted order keeps downstream float accumulation (e.g. the global
        # clip norm) independent of hash randomization across processes
        grads = {name: np.zeros_like(vals[graph._param_nodes[name].idx])
                 for name in graph.parameters}

    for node in reversed(graph.nodes):
        dy = adj[node.idx]
        if dy is None or node.op in ("input", "param"):
            continue
        ins = node.inputs
        for inp, g in zip(ins, _OPS[node.op][1](dy, vals[node.idx], *[vals[i.idx] for i in ins])):
            # bound inputs (ids, targets, masks) take none unless asked for
            if g is None or (inp.op == "input" and inp.name not in wrt):
                continue
            if inp.op == "param":
                grads[inp.name] += g
                continue
            if adj[inp.idx] is None:
                adj[inp.idx] = np.zeros_like(vals[inp.idx], dtype=g.dtype)
            adj[inp.idx] += g
    return grads, {n.name: adj[n.idx] for n in graph.nodes
                   if n.op == "input" and adj[n.idx] is not None}


def finite_difference_check(loss, value, analytic, step):
    """Max relative error between an analytic gradient and central differences.

    `loss` maps a value of one parameter to a scalar loss; `analytic` is its
    gradient at `value`.  Perturbs each element of `value` by ±step and
    compares the loss slope to `analytic`.  The relative error uses
    |analytic - fd| / max(|analytic|, |fd|, 1e-8).
    """
    if not np.isfinite(step) or step <= 0:
        raise ValueError(f"finite-difference step must be positive, got {step}")
    worst = 0.0
    perturbed = np.array(value, dtype=np.float64)
    flat = perturbed.reshape(-1)
    aflat = np.asarray(analytic).reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss(perturbed)
        flat[i] = orig - step
        lo = loss(perturbed)
        flat[i] = orig
        fd = (hi - lo) / (2.0 * step)
        if not np.isfinite(fd):
            raise NonFiniteError(f"non-finite perturbation result at element {i}")
        err = abs(aflat[i] - fd) / max(abs(aflat[i]), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst
