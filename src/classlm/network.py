"""Concrete networks: parameter allocation and graph assembly.

A :class:`Network` owns the parameter store for one validated architecture
description plus the vocabulary and class map it predicts over.  One
method makes its two graphs, each once, over a time-major block of
positions: ids ``(T, B)`` in, the recurrent state before the first position
in through ``state/...`` bindings, and the state sequences out.  The
evaluation graph (no dropout) outputs the class distribution of every
position.  :meth:`Network.step` runs it at T = 1, and it is the one step of
scoring and sampling: it pads a step's rows to whole row blocks, splits
them into chunks and into parts on pinned worker threads, and computes each
part's word-side layers (projections, and whatever reads only word-side
layers) once per distinct word id, not once per row; by the row rule of
:mod:`classlm.graph` every row keeps the bits it would have had.  Sampling
takes every row's class distribution; scoring passes the (row, class)
pairs it reads, and each part returns only those entries.  The
training graph binds dropout masks, targets and a position mask, all
``(T, B, ...)``, and outputs the mean masked cross-entropy as "loss", so
one evaluation and one backward pass cover a whole training batch.

The softmax layer always has one output unit per word class; with an
identity class map this degenerates to a full-vocabulary softmax.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .architecture import INPUT_KINDS, RECURRENT_KINDS, validate_description
from .classing import identity_classmap
from .graph import ROW_BLOCK, Graph, forward_eval

__all__ = ["Network", "file_blocks", "instantiate_network", "parameter_shapes"]

_DTYPES = {"double": np.float64, "single": np.float32}
_GATES = {"lstm": "ifoc", "gru": "zrh"}  # gate letters in stacking order

# Rows per network step, a multiple of ROW_BLOCK: a trie level or a sampling
# position wider than this is split, which bounds a step's memory on large
# inputs and, since rows are computed in independent blocks, changes no
# result.
MAX_STEP_ROWS = 128 * ROW_BLOCK

# Rows per part of a step split across threads, at least, so a step splits
# from 160 rows on.  Two parts on pinned workers against one step on the
# calling thread, on windows of the benchmark's trie levels at the sizes of
# the `rescore` and of the `train` benchmark model, on a 2-core host with
# one BLAS thread (medians of 200 steps, three sessions): 0.97-1.09x the
# speed at 128 rows, 1.03-1.17x at 144, 1.00-1.20x at 160, 1.10-1.26x at
# 192 and 1.27-1.34x at 256.
PART_ROWS = 80

_pool = None  # worker threads for the parts of split steps, made on first use
_pool_lock = threading.Lock()
_most_threads = 1  # read by threads_used()


def cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def threads_used():
    """The most threads one :meth:`Network.step` has run on in this process."""
    return _most_threads


def _pinned_pool(workers):
    """A pool of `workers` threads, each pinned when it starts to one CPU of
    this thread's affinity mask, taking the CPUs in turn, so that the parts
    of a step run side by side.  A worker whose pin fails, or any worker on
    a platform without affinity masks, runs unpinned; the calling thread's
    affinity is never changed."""
    if not hasattr(os, "sched_setaffinity"):
        return ThreadPoolExecutor(workers, thread_name_prefix="classlm-step")
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    lock = threading.Lock()  # workers start concurrently

    def pin():
        with lock:
            cpu = next(cpus)
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # a pin the system refuses: the worker runs unpinned
            pass

    return ThreadPoolExecutor(workers, thread_name_prefix="classlm-step", initializer=pin)


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

    def step(self, state, rows, word_ids, picks=None):
        """One step from each state row in `rows` on the matching word id.

        Returns ``(class probabilities, new state)`` with one row per entry
        of `rows`.  With `picks`, a pair ``(pick_rows, pick_classes)`` of
        equal-length integer arrays, the first item is instead the vector
        ``probs[pick_rows, pick_classes]``, one probability per pick, each
        the same float as in the full array; a pick row lies in
        ``range(len(rows))``.  Each part of the step then gathers its own
        picks before it returns, so no (rows x classes) array outlives a
        part and none as wide as the step is allocated.

        The rows are padded to a multiple of ``ROW_BLOCK`` by
        repeating the last one and run at most ``MAX_STEP_ROWS`` per step.
        Each part of a step binds its ids once per distinct word, padded to
        a multiple of ``ROW_BLOCK`` by repeating the last, and runs the
        word-side layers on those rows only.  By the row rule of
        :mod:`classlm.graph` a row's results are bitwise the same whatever
        other rows it runs with; the padding rows are dropped.

        A step of at least two parts of ``PART_ROWS`` rows runs as contiguous
        parts on block boundaries, one per CPU of the process's affinity mask
        at most, each on a worker thread pinned to its own CPU.  Row blocks
        make the parts' results the bits of one serial step.  A part that
        raises does so here, after every other part has ended.

        A step that runs as one part returns views of that part's arrays,
        or its gathered picks and views of its states.  For any other step
        this thread allocates the result, and every part writes its rows
        (or its picks) into it on the thread that ran it.
        """
        n = len(rows)
        if picks is not None:
            picks = tuple(np.asarray(p, dtype=np.intp) for p in picks)
            if picks[0].size and not 0 <= picks[0].min() <= picks[0].max() < n:
                raise IndexError(f"pick rows must lie in range({n})")
        pad = -n % ROW_BLOCK
        rows = np.concatenate([rows, np.repeat(rows[-1:], pad)])
        word_ids = np.concatenate([word_ids, np.repeat(word_ids[-1:], pad)])
        cpus = cpu_count()
        steps = []
        for lo in range(0, len(rows), MAX_STEP_ROWS):
            size = min(MAX_STEP_ROWS, len(rows) - lo)
            parts = max(1, min(cpus, size // PART_ROWS))
            # contiguous parts of at least PART_ROWS rows, on block boundaries
            steps.append([lo + ROW_BLOCK * (size // ROW_BLOCK * i // parts)
                          for i in range(parts + 1)])
        if len(steps) == 1 and len(steps[0]) == 2:
            probs, new = self._step_part({key: value[rows] for key, value in state.items()},
                                         word_ids)
            probs = probs[:n] if picks is None else probs[picks]
            return probs, {key: value[:n] for key, value in new.items()}
        # a step's values have the type of its parameters and input state together
        dtype = np.result_type(self.dtype, *state.values())
        if picks is None:
            probs = np.empty((len(rows), self.classes.num_classes), dtype)
        else:
            probs = np.empty(len(picks[0]), dtype)
            # sorted by row, so that each part's picks are one contiguous run
            order = np.argsort(picks[0], kind="stable")
            picks = order, picks[0][order], picks[1][order]
        new = {key: np.empty((len(rows), *value.shape[1:]), dtype) for key, value in state.items()}
        for bounds in steps:
            self._step_parts(state, rows, word_ids, (probs, new), bounds, cpus, picks)
        return probs[:n] if picks is None else probs, {key: value[:n] for key, value in new.items()}

    def _step_part(self, state, word_ids):
        """One part of a step: `state` has one row per word id, a multiple
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

    def _step_parts(self, state, rows, word_ids, result, bounds, cpus, picks):
        """One step over the parts ``rows[bounds[i]:bounds[i + 1]]``, each
        written into its rows of `result`, or with `picks` (the pick order
        and the picks sorted by row) into its picks' entries.  One part runs
        on this thread; two or more run on the pinned workers while this
        thread waits, since this thread may share a CPU with a worker."""

        def run(lo, hi):
            probs, new = self._step_part({key: value[rows[lo:hi]] for key, value in state.items()},
                                         word_ids[lo:hi])
            if picks is None:
                result[0][lo:hi] = probs
            else:
                order, pick_rows, pick_classes = picks
                a, b = np.searchsorted(pick_rows, (lo, hi))
                result[0][order[a:b]] = probs[pick_rows[a:b] - lo, pick_classes[a:b]]
            for key, value in new.items():
                result[1][key][lo:hi] = value

        parts = list(zip(bounds, bounds[1:]))
        if len(parts) == 1:
            run(*parts[0])
            return
        global _pool, _most_threads
        with _pool_lock:
            if _pool is None:
                _pool = _pinned_pool(cpus)
            _most_threads = max(_most_threads, len(parts))
        self.step_graph()  # built here, so two threads never race to build it
        futures = [_pool.submit(run, lo, hi) for lo, hi in parts]
        wait(futures)  # no part outlives the call, failed or not
        for future in futures:
            future.result()

    def copy_params(self):
        return {name: value.copy() for name, value in self.params.items()}

    def set_params(self, params):
        for name in self.params:
            self.params[name] = params[name].copy()
