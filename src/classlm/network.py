"""Concrete networks: parameter allocation and graph assembly.

A :class:`Network` owns the parameter store for one validated architecture
description plus the vocabulary and class map it predicts over.  One
method makes its two graphs, each once, over a time-major block of
positions: ids ``(T, B)`` in, the recurrent state before the first position
in through ``state/...`` bindings, and the state sequences out.  The
evaluation graph (no dropout) outputs the class distribution of every
position; :meth:`Network.step` runs it at T = 1 for scoring and sampling.
The training graph binds dropout masks, targets and a position mask, all
``(T, B, ...)``, and outputs the mean masked cross-entropy as "loss", so
one evaluation and one backward pass cover a whole training batch.

The softmax layer always has one output unit per word class; with an
identity class map this degenerates to a full-vocabulary softmax.
"""

from __future__ import annotations

import numpy as np

from . import layers
from .architecture import INPUT_KINDS, RECURRENT_KINDS, validate_description
from .classing import identity_classmap
from .graph import Graph, forward_eval

__all__ = ["Network", "instantiate_network", "parameter_shapes"]

_DTYPES = {"double": np.float64, "single": np.float32}


def _layer_widths(desc, vocab, classes):
    """Output width of every layer (None for id streams)."""
    widths = {}
    for spec in desc.layers:
        if spec.kind in INPUT_KINDS:
            widths[spec.name] = None
        elif spec.kind == "projection":
            widths[spec.name] = spec.size * len(spec.inputs)
        elif spec.kind in ("lstm", "gru", "tanh"):
            widths[spec.name] = spec.size
        elif spec.kind == "dropout":
            widths[spec.name] = sum(widths[src] for src in spec.inputs)
        elif spec.kind == "softmax":
            widths[spec.name] = classes.num_classes
    return widths


def parameter_shapes(desc, vocab, classes):
    """Ordered name -> shape map of every parameter the description implies."""
    widths = _layer_widths(desc, vocab, classes)
    shapes = {}
    for spec in desc.layers:
        if spec.kind == "projection":
            for src in spec.inputs:
                rows = classes.num_classes if desc.by_name[src].kind == "class_input" else len(vocab)
                shapes[f"{spec.name}/E_{src}"] = (rows, spec.size)
        elif spec.kind in ("lstm", "gru"):
            in_width = sum(widths[src] for src in spec.inputs)
            names = layers.LSTM_PARAMS if spec.kind == "lstm" else layers.GRU_PARAMS
            for pname in names:
                if pname.startswith("W"):
                    shapes[f"{spec.name}/{pname}"] = (in_width, spec.size)
                elif pname.startswith("U"):
                    shapes[f"{spec.name}/{pname}"] = (spec.size, spec.size)
                else:
                    shapes[f"{spec.name}/{pname}"] = (spec.size,)
        elif spec.kind == "tanh":
            in_width = sum(widths[src] for src in spec.inputs)
            shapes[f"{spec.name}/W"] = (in_width, spec.size)
            shapes[f"{spec.name}/b"] = (spec.size,)
        elif spec.kind == "softmax":
            in_width = sum(widths[src] for src in spec.inputs)
            shapes[f"{spec.name}/W"] = (in_width, classes.num_classes)
            shapes[f"{spec.name}/b"] = (classes.num_classes,)
    return shapes


def instantiate_network(desc, vocab, classes=None, seed=0, precision="double"):
    """Allocate and initialize all parameters for a validated description.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)); biases start at
    zero except the LSTM forget-gate bias, which starts at one so early
    training does not erase the cell state.  Identical seeds give
    bit-identical parameters.
    """
    violations = validate_description(desc)
    if violations:
        raise ValueError("invalid description:\n" + "\n".join(violations))
    if classes is None:
        if any(s.kind == "class_input" for s in desc.layers):
            raise ValueError("description uses a class input but no class map was given")
        classes = identity_classmap(vocab)
    if len(classes) != len(vocab):
        raise ValueError("class map does not cover the vocabulary")
    dtype = _DTYPES[precision]
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in parameter_shapes(desc, vocab, classes).items():
        if len(shape) == 1:
            value = np.zeros(shape, dtype=np.float64)
            if name.endswith("/b_f"):
                value += 1.0
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            value = rng.uniform(-limit, limit, size=shape)
        params[name] = value.astype(dtype)
    return Network(desc, vocab, classes, params, precision)


class Network:
    """An instantiated model: description + vocabulary + classes + parameters."""

    def __init__(self, desc, vocab, classes, params, precision="double"):
        self.desc = desc
        self.vocab = vocab
        self.classes = classes
        self.params = params
        self.precision = precision
        self.dtype = _DTYPES[precision]
        self.widths = _layer_widths(desc, vocab, classes)
        self.input_layers = [s.name for s in desc.layers if s.kind in INPUT_KINDS]
        self.recurrent_layers = [s.name for s in desc.layers if s.kind in RECURRENT_KINDS]
        self._graphs = {}

    # -- input preparation ---------------------------------------------------

    def token_bindings(self, word_ids):
        """``tokens/<input layer>`` id arrays for a word-id array (any shape)."""
        word_ids = np.asarray(word_ids)
        out = {}
        for name in self.input_layers:
            if self.desc.by_name[name].kind == "class_input":
                out[f"tokens/{name}"] = self.classes.class_of[word_ids]
            else:
                out[f"tokens/{name}"] = word_ids
        return out

    def initial_state(self, batch_size):
        """All-zero recurrent state at a sentence start."""
        state = {}
        for name in self.recurrent_layers:
            size = self.widths[name]
            state[f"h/{name}"] = np.zeros((batch_size, size), dtype=self.dtype)
            if self.desc.by_name[name].kind == "lstm":
                state[f"c/{name}"] = np.zeros((batch_size, size), dtype=self.dtype)
        return state

    # -- graph assembly --------------------------------------------------------

    def _param_nodes(self, g, layer_name, pnames):
        return {p: g.parameter(f"{layer_name}/{p}") for p in pnames}

    def _build(self, g, train_mode):
        """Append the network over every position of the bound ids; returns
        (logits, state sequences)."""
        acts = {}
        state_out = {}
        logits = None
        final = self.desc.output_layer.name
        for spec in self.desc.layers:
            name = spec.name
            if spec.kind in INPUT_KINDS:
                acts[name] = g.input(f"tokens/{name}")
                continue
            if spec.kind == "projection":
                tables = [g.parameter(f"{name}/E_{src}") for src in spec.inputs]
                ids = [acts[src] for src in spec.inputs]
                acts[name] = layers.projection_forward(g, ids, tables)
                continue
            x = g.concat([acts[src] for src in spec.inputs])
            if spec.kind == "lstm":
                p = self._param_nodes(g, name, layers.LSTM_PARAMS)
                h, c = layers.lstm_forward(g, x, g.input(f"state/h/{name}"),
                                           g.input(f"state/c/{name}"), p, name)
                acts[name] = state_out[f"h/{name}"] = h
                state_out[f"c/{name}"] = c
            elif spec.kind == "gru":
                p = self._param_nodes(g, name, layers.GRU_PARAMS)
                h = layers.gru_forward(g, x, g.input(f"state/h/{name}"), p, name)
                acts[name] = state_out[f"h/{name}"] = h
            elif spec.kind == "tanh":
                acts[name] = layers.tanh_forward(g, x, self._param_nodes(g, name, layers.TANH_PARAMS))
            elif spec.kind == "dropout":
                if train_mode and spec.dropout_rate > 0.0:
                    acts[name] = g.mul(x, g.input(f"dropmask/{name}"))
                else:
                    acts[name] = x
            elif spec.kind == "softmax":
                p = self._param_nodes(g, name, layers.SOFTMAX_PARAMS)
                out = layers.softmax_logits(g, x, p)
                if name == final:
                    logits = out
                else:
                    acts[name] = g.softmax(out)
        return logits, state_out

    def _graph(self, train_mode):
        """The graph of one mode, built on first use."""
        if train_mode not in self._graphs:
            g = Graph()
            logits, state_out = self._build(g, train_mode)
            if train_mode:
                ce = g.cross_entropy(logits, g.input("target"))
                g.mark_output(g.masked_mean(ce, g.input("mask")), "loss")
            else:
                g.mark_output(g.softmax(logits), "class_probs")
            for key, node in state_out.items():
                g.mark_output(node, f"state/{key}")
            self._graphs[train_mode] = g
        return self._graphs[train_mode]

    def step_graph(self):
        """Evaluation mode: state in, class distributions and state sequences out."""
        return self._graph(train_mode=False)

    def training_graph(self):
        """Train mode: dropout masks bound, mean masked cross-entropy as loss."""
        return self._graph(train_mode=True)

    # -- evaluation -------------------------------------------------------------

    def step(self, state, word_ids):
        """Advance one position; returns (class probabilities, new state)."""
        bindings = self.token_bindings(np.asarray(word_ids, dtype=np.int64)[None])
        for key, value in state.items():
            bindings[f"state/{key}"] = value
        outputs = forward_eval(self.step_graph(), bindings, self.params).outputs
        return outputs["class_probs"][0], {key: outputs[f"state/{key}"][-1] for key in state}

    def copy_params(self):
        return {name: value.copy() for name, value in self.params.items()}

    def set_params(self, params):
        for name in self.params:
            self.params[name] = params[name].copy()
