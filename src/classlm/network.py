"""Concrete networks: parameter allocation and graph assembly.

A :class:`Network` owns the parameter store for one validated architecture
description plus the vocabulary and class map it predicts over.  One
method makes its two graphs, each once, over a time-major block of
positions: ids ``(T, B)`` in, the recurrent state before the first position
in through ``state/...`` bindings, and the state sequences out.  The
evaluation graph (no dropout) outputs the class distribution of every
position.  :meth:`Network.step` runs it at T = 1, and it is the one step of
scoring and sampling: it pads a step's rows to whole row blocks, splits
them into chunks, and computes each chunk's word-side layers (projections,
and whatever reads only word-side layers) once per distinct word id, not
once per row; by the row rule of :mod:`classlm.graph` every row keeps the
bits it would have had.  Sampling takes every row's class distribution;
scoring passes the (row, class) pairs it reads.  Threads split calls,
not steps: :func:`in_runs` cuts a call's sentences into runs, each stepped
on a thread of its own, which the call starts and joins; no thread is
pinned to a CPU or outlives the call.  The training graph binds dropout
masks, targets and a position mask, all ``(T, B, ...)``, and outputs the
mean masked cross-entropy as "loss", so one evaluation and one backward
pass cover a whole training batch.

The softmax layer always has one output unit per word class; with an
identity class map this degenerates to a full-vocabulary softmax.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .architecture import INPUT_KINDS, RECURRENT_KINDS, validate_description
from .classing import identity_classmap
from .graph import ROW_BLOCK, Graph, forward_eval

__all__ = ["Network", "file_blocks", "in_runs", "instantiate_network", "parameter_shapes"]

_DTYPES = {"double": np.float64, "single": np.float32}
_GATES = {"lstm": "ifoc", "gru": "zrh"}  # gate letters in stacking order

# Rows per network step, a multiple of ROW_BLOCK: a trie level or a sampling
# position wider than this is split, which bounds a step's memory on large
# inputs and, since rows are computed in independent blocks, changes no
# result.  The runs of a call share it (see in_runs).
MAX_STEP_ROWS = 128 * ROW_BLOCK

# Sentences per run of a call split across threads, at least, so a call
# splits from 160 sentences on.  Smaller runs did not pay (2-core host, one
# BLAS thread, in-process): the benchmark `sample` (120 sentences) took
# 44.4-47.6 ms as one run against 46.5-48.2 and 45.9-47.3 ms as two runs
# at 60 and 40 here (medians of 40 alternating calls, two rounds), and
# benchmark `train`, whose 64-sentence dev set splits at 32, took 670-956
# against 843-1139 ms a round (6 alternating rounds).
RUN_SENTENCES = 80

_most_threads = 1  # read by threads_used()
_most_threads_lock = threading.Lock()


def cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def threads_used():
    """The most threads one call of :func:`in_runs` has run on in this process."""
    return _most_threads


def in_runs(network, weights, run):
    """``run(lo, hi, max_rows)`` on contiguous runs ``[lo, hi)`` of the
    items whose `weights` are given; returns the results in run order.

    From two runs of ``RUN_SENTENCES`` items on, the items are cut where
    the running weight crosses an equal share, one run per CPU at most:
    run 0 on this thread, the others on worker threads that this call
    starts and joins, so no thread outlives it and a forked child splits
    calls as its parent does.  Each run steps `max_rows` rows at most, its
    share of ``MAX_STEP_ROWS`` in row blocks.  A run that raises does so
    here once every run has ended; of several, the first in run order.
    """
    n = len(weights)
    runs = max(1, min(cpu_count(), n // RUN_SENTENCES, MAX_STEP_ROWS // ROW_BLOCK))
    if runs == 1:
        return [run(0, n, MAX_STEP_ROWS)]
    cumulative = np.cumsum(weights)
    cuts = np.searchsorted(cumulative, cumulative[-1] * np.arange(1, runs) / runs) + 1
    bounds = sorted({0, n, *cuts.tolist()})  # a heavy item may swallow a share
    runs = len(bounds) - 1
    max_rows = MAX_STEP_ROWS // runs // ROW_BLOCK * ROW_BLOCK
    global _most_threads
    with _most_threads_lock:
        _most_threads = max(_most_threads, runs)
    network.step_graph()  # built here, so two threads never race to build it
    with ThreadPoolExecutor(runs - 1, thread_name_prefix="classlm-run") as pool:
        futures = [pool.submit(contextvars.copy_context().run, run, lo, hi, max_rows)
                   for lo, hi in zip(bounds[1:], bounds[2:])]
        first = run(bounds[0], bounds[1], max_rows)
    # the end of the with block waited for every run, failed or not
    return [first, *(future.result() for future in futures)]


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
    """Ordered name -> shape map of every parameter the description implies.

    An LSTM or GRU layer has three parameters, ``W`` (G, in, H), ``U``
    (G, H, H) and ``b`` (G, H), each stacking its G gates in the order
    :meth:`Graph.lstm` and :meth:`Graph.gru` read them.
    """
    widths = _layer_widths(desc, vocab, classes)
    shapes = {}
    for spec in desc.layers:
        if spec.kind == "projection":
            for src in spec.inputs:
                rows = classes.num_classes if desc.by_name[src].kind == "class_input" else len(vocab)
                shapes[f"{spec.name}/E_{src}"] = (rows, spec.size)
            continue
        in_width = sum(widths[src] for src in spec.inputs)
        if spec.kind in _GATES:
            gates = len(_GATES[spec.kind])
            shapes[f"{spec.name}/W"] = (gates, in_width, spec.size)
            shapes[f"{spec.name}/U"] = (gates, spec.size, spec.size)
            shapes[f"{spec.name}/b"] = (gates, spec.size)
        elif spec.kind in ("tanh", "softmax"):
            shapes[f"{spec.name}/W"] = (in_width, widths[spec.name])
            shapes[f"{spec.name}/b"] = (widths[spec.name],)
    return shapes


def file_blocks(desc, names):
    """The blocks of a version-1 model file, in file order, as (file name,
    parameter name, index) triples: ``params[name][index]`` is the block.

    An LSTM or GRU layer is stored one gate after another, ``W_i, U_i, b_i,
    W_f, ...`` (``W_z, U_z, b_z, W_r, ...``), each gate's block a slice of
    the stacked parameter; every other parameter is one block.  `names`
    are the parameter names in :func:`parameter_shapes` order.
    """
    blocks = []
    for name in names:
        layer, short = name.split("/")
        gates = _GATES.get(desc.by_name[layer].kind)
        if gates is None:
            blocks.append((name, name, ()))
        elif short == "W":  # the layer's first parameter: all three, gate by gate
            blocks += [(f"{layer}/{p}_{gate}", f"{layer}/{p}", (k,))
                       for k, gate in enumerate(gates) for p in "WUb"]
    return blocks


def instantiate_network(desc, vocab, classes=None, seed=0, precision="double"):
    """Allocate and initialize all parameters for a validated description.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), drawn block by
    block in file order (one block per gate of a recurrent layer); biases
    start at zero except the LSTM forget-gate bias, which starts at one so
    early training does not erase the cell state.  Identical seeds give
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
    rng = np.random.default_rng(seed)
    shapes = parameter_shapes(desc, vocab, classes)
    params = {name: np.zeros(shape, _DTYPES[precision]) for name, shape in shapes.items()}
    for _, name, index in file_blocks(desc, shapes):
        block = params[name][index]
        if block.ndim == 2:  # drawn in double precision, then cast
            limit = np.sqrt(6.0 / (block.shape[0] + block.shape[1]))
            block[...] = rng.uniform(-limit, limit, size=block.shape)
    for spec in desc.layers:
        if spec.kind == "lstm":
            params[f"{spec.name}/b"][1] = 1.0  # the forget gate
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

    def _build(self, g, train_mode):
        """Append the network over every position of the bound ids; returns
        (logits, state sequences).

        In evaluation mode the ids are bound once per distinct word, and the
        input ``rows`` maps each state row to its word's row.  The word-side
        layers, those whose inputs are all id streams or word-side, run on
        the distinct rows; a recurrent layer reads a word-side input through
        its `rows` operand and any other consumer through a ``take``.
        """
        acts = {}
        state_out = {}
        final = self.desc.output_layer.name
        rows = None if train_mode else g.input("rows")
        word_side = set()  # names of the layers computed once per distinct word
        taken = {}

        def per_row(src):  # a layer's value with one row per state row
            if src not in word_side:
                return acts[src]
            if src not in taken:
                taken[src] = g.take(acts[src], rows)
            return taken[src]

        for spec in self.desc.layers:
            name = spec.name
            if spec.kind in INPUT_KINDS:
                acts[name] = g.input(f"tokens/{name}")
                if rows is not None:
                    word_side.add(name)
                continue
            per_word = rows is not None and word_side.issuperset(spec.inputs)
            if per_word and spec.kind not in RECURRENT_KINDS:
                word_side.add(name)
            if spec.kind == "projection":
                # one embedding table per id stream, the rows concatenated
                acts[name] = g.concat([g.gather_rows(g.parameter(f"{name}/E_{src}"), acts[src])
                                       for src in spec.inputs])
                continue
            x = g.concat([acts[src] if per_word else per_row(src) for src in spec.inputs])
            if spec.kind == "dropout":
                if train_mode and spec.dropout_rate > 0.0:
                    x = g.mul(x, g.input(f"dropmask/{name}"))
                acts[name] = x
                continue
            W, b = g.parameter(f"{name}/W"), g.parameter(f"{name}/b")
            x_rows = rows if per_word else None
            if spec.kind == "lstm":
                seq = g.lstm(x, g.input(f"state/h/{name}"), g.input(f"state/c/{name}"),
                             W, g.parameter(f"{name}/U"), b, name, x_rows)
                acts[name] = state_out[f"h/{name}"] = g.item(seq, 0)
                state_out[f"c/{name}"] = g.item(seq, 1)
            elif spec.kind == "gru":
                seq = g.gru(x, g.input(f"state/h/{name}"), W, g.parameter(f"{name}/U"), b,
                            name, x_rows)
                acts[name] = state_out[f"h/{name}"] = g.item(seq, 0)
            elif spec.kind == "tanh":
                acts[name] = g.tanh(g.matmul(x, W, b))
            elif spec.kind == "softmax":
                out = g.matmul(x, W, b)
                acts[name] = out if name == final else g.softmax(out)
        return per_row(final), state_out

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

    def step(self, state, rows, word_ids, picks=None, max_rows=None):
        """One step, on this thread, from each state row in `rows` on the
        matching word id; returns ``(class probabilities, new state)`` with
        one row per entry of `rows`.  With `picks`, a pair ``(pick_rows,
        pick_classes)`` of equal-length integer arrays, the first item is
        instead the vector ``probs[pick_rows, pick_classes]``, each the same
        float as in the full array; a pick row lies in ``range(len(rows))``.

        The rows are padded to a multiple of ``ROW_BLOCK`` by repeating the
        last one and run in chunks of at most `max_rows` (by default
        ``MAX_STEP_ROWS``) rows.  Each chunk binds its ids once per distinct
        word, padded likewise, runs the word-side layers on those rows
        only, and gathers its picks before the next chunk runs, so no
        (rows x classes) array outlives a chunk.  By the row rule of
        :mod:`classlm.graph` a row's results are bitwise the same whatever
        other rows it runs with; the padding rows are dropped.
        """
        n = len(rows)
        if picks is not None:
            picks = tuple(np.asarray(p, dtype=np.intp) for p in picks)
            if picks[0].size and not 0 <= picks[0].min() <= picks[0].max() < n:
                raise IndexError(f"pick rows must lie in range({n})")
        pad = -n % ROW_BLOCK
        rows = np.concatenate([rows, np.repeat(rows[-1:], pad)])
        word_ids = np.concatenate([word_ids, np.repeat(word_ids[-1:], pad)])
        max_rows = max_rows or MAX_STEP_ROWS
        if len(rows) <= max_rows:  # one chunk: views of its own arrays, or its picks
            probs, new = self._step_chunk({key: value[rows] for key, value in state.items()},
                                          word_ids)
            probs = probs[:n] if picks is None else probs[picks]
            return probs, {key: value[:n] for key, value in new.items()}
        # a step's values have the type of its parameters and input state together
        dtype = np.result_type(self.dtype, *state.values())
        shape = (len(rows), self.classes.num_classes) if picks is None else len(picks[0])
        probs = np.empty(shape, dtype)
        new = {key: np.empty((len(rows), *value.shape[1:]), dtype) for key, value in state.items()}
        for lo in range(0, len(rows), max_rows):
            hi = lo + max_rows
            chunk_probs, chunk_new = self._step_chunk(
                {key: value[rows[lo:hi]] for key, value in state.items()}, word_ids[lo:hi])
            if picks is None:
                probs[lo:hi] = chunk_probs
            else:
                mine = (lo <= picks[0]) & (picks[0] < hi)
                probs[mine] = chunk_probs[picks[0][mine] - lo, picks[1][mine]]
            for key, value in chunk_new.items():
                new[key][lo:hi] = value
        return probs[:n] if picks is None else probs, {key: value[:n] for key, value in new.items()}

    def _step_chunk(self, state, word_ids):
        """One chunk of a step: `state` has one row per word id, a multiple
        of ``ROW_BLOCK`` of them, and the ids are bound once per distinct
        word.  Returns (class probabilities, new state)."""
        words, word_rows = np.unique(word_ids, return_inverse=True)
        words = np.concatenate([words, np.repeat(words[-1:], -len(words) % ROW_BLOCK)])
        bindings = self.token_bindings(words[None])
        bindings["rows"] = word_rows
        for key, value in state.items():
            bindings[f"state/{key}"] = value
        outputs = forward_eval(self.step_graph(), bindings, self.params).outputs
        return outputs["class_probs"][0], {key: outputs[f"state/{key}"][-1] for key in state}

    def copy_params(self):
        return {name: value.copy() for name, value in self.params.items()}

    def set_params(self, params):
        for name in self.params:
            self.params[name] = params[name].copy()
