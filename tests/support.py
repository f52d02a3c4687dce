"""Shared helpers for the test suite: tiny architectures, corpus generators,
independent oracles (central finite differences, set-partition
enumeration, brute-force word distributions, the line-at-a-time n-best
reader) and per-item views of the library's tables that only tests
read."""

import json
import logging
import math
import struct
from collections import namedtuple

import numpy as np

import classlm as cl
from classlm.cli import main
from classlm.model_io import MAGIC
from classlm.network import file_blocks
from classlm.rescoring import rank_hypotheses, score_hypotheses
from classlm.vocabulary import UNKNOWN, text_lines

SMALL_ARCH = """\
input type=class name=class_input
layer type=projection name=projection_layer input=class_input size=8
layer type=lstm name=hidden_layer_1 input=projection_layer size=16
layer type=tanh name=hidden_layer_2 input=hidden_layer_1 size=16
layer type=softmax name=output_layer input=hidden_layer_2
"""

LARGE_ARCH = """\
input type=class name=class_input
layer type=projection name=projection_layer input=class_input size=500
layer type=dropout name=dropout_layer_1 input=projection_layer dropout_rate=0.25
layer type=lstm name=hidden_layer_1 input=dropout_layer_1 size=1500
layer type=dropout name=dropout_layer_2 input=hidden_layer_1 dropout_rate=0.25
layer type=tanh name=hidden_layer_2 input=dropout_layer_2 size=1500
layer type=dropout name=dropout_layer_3 input=hidden_layer_2 dropout_rate=0.25
layer type=softmax name=output_layer input=dropout_layer_3
"""

BASELINE_ARCH = """\
input type=class name=class_input
layer type=projection name=projection_layer input=class_input size=100
layer type=lstm name=hidden_layer_1 input=projection_layer size=300
layer type=tanh name=hidden_layer_2 input=hidden_layer_1 size=300
layer type=softmax name=output_layer input=hidden_layer_2
"""


def small_network(sentences, num_classes, seed=7, arch=SMALL_ARCH):
    """Instantiate the small architecture over a toy corpus."""
    desc = cl.parse_description(arch)
    vocab = cl.build_vocabulary(sentences)
    classmap = cl.initialize_classes(vocab, num_classes)
    return cl.instantiate_network(desc, vocab, classmap, seed=seed)


def random_class_network(rng, vocab_size, num_classes, sizes=(4, 6, 6), precision="double"):
    """A randomly initialized class-factored model over a synthetic vocab."""
    words = [f"w{i}" for i in range(vocab_size)]
    counts = {w: int(rng.integers(1, 50)) for w in words}
    vocab = cl.Vocabulary(words, counts)
    classmap = cl.initialize_classes(vocab, num_classes, seed=int(rng.integers(1 << 30)))
    arch = (
        "input type=class name=class_input\n"
        f"layer type=projection name=proj input=class_input size={sizes[0]}\n"
        f"layer type=lstm name=rec input=proj size={sizes[1]}\n"
        f"layer type=tanh name=ff input=rec size={sizes[2]}\n"
        "layer type=softmax name=out input=ff\n"
    )
    desc = cl.parse_description(arch)
    return cl.instantiate_network(desc, vocab, classmap, seed=int(rng.integers(1 << 30)),
                                  precision=precision)


def file_block_views(network, arrays=None):
    """{block name: view} of a network's parameters, or of the gradients
    `arrays`, with one block per gate of an LSTM/GRU parameter (``rec/W_i``,
    ``rec/U_i``, ...) as a model file stores them."""
    arrays = network.params if arrays is None else arrays
    return {block: arrays[name][index] for block, name, index in file_blocks(network.desc, arrays)}


def dropped(value):
    """Whether `value` is what the graph engine leaves of a dropped value: a
    read-only stand-in of its shape that holds one element."""
    return value.size > 1 and not any(value.strides)


def stacked_gate_weights(rng, gates, n_in, n, scale):
    """Random {"W": (gates, n_in, n), "U": (gates, n, n), "b": (gates, n)} of
    a recurrent op, drawn gate by gate: W, U and b of the first gate, then
    of the next."""
    drawn = [[rng.normal(size=shape) * scale for shape in ((n_in, n), (n, n), (n,))]
             for _ in range(gates)]
    return {name: np.stack([gate[k] for gate in drawn]) for k, name in enumerate("WUb")}


class ReferenceGraph(cl.Graph):
    """A graph that can also build the ops of :data:`REFERENCE_OPS`, which
    no network builds: the gate arithmetic, the separate bias addition and
    the scalar sums of the step-by-step reference and of the tests' losses.
    Evaluating one needs the ``reference_ops`` fixture, which adds their
    rules to the engine's op table for one test."""

    def add(self, a, b, name=None):
        return self._append("add", name, (a, b))

    def add_bias(self, x, b, name=None):
        """Broadcast-add a bias vector over the rows of a (T, B, n) value:
        ``matmul(x, W, b)`` of the engine as two nodes."""
        return self._append("add_bias", name, (x, b))

    def sigmoid(self, x, name=None):
        return self._append("sigmoid", name, (x,))

    def one_minus(self, x, name=None):
        """Elementwise 1 - x (gate complement)."""
        return self._append("one_minus", name, (x,))

    def sum(self, x, name=None):
        """Reduce to a scalar."""
        return self._append("sum", name, (x,))


def _add(node, a, b):
    cl.graph._check_shapes(a.shape == b.shape, node, a, b)
    return np.add(a, b)


def _add_bias(node, x, b):
    cl.graph._check_shapes(x.ndim == 3 and b.ndim == 1 and x.shape[-1] == b.shape[0], node, x, b)
    return x + b


def _summed_from_the_last_step(dy):
    """A bias's adjoint: each step's rows summed, the steps added from the
    last to the first, as a step-by-step backward adds them."""
    total = dy[-1].sum(axis=0)
    for t in range(len(dy) - 2, -1, -1):
        total += dy[t].sum(axis=0)
    return total


# op -> (forward, backward) of the ReferenceGraph ops, in the form of the
# engine's op table, with the engine's sigmoid
REFERENCE_OPS = {
    "add": (_add, lambda dy, y, a, b: (dy, dy)),
    "add_bias": (_add_bias, lambda dy, y, x, b: (dy, _summed_from_the_last_step(dy))),
    "sigmoid": (lambda node, x: cl.graph._sigmoid(x), lambda dy, y, x: (dy * y * (1.0 - y),)),
    "one_minus": (lambda node, x: 1.0 - x, lambda dy, y, x: (-dy,)),
    "sum": (lambda node, x: np.asarray(x.sum()),
            lambda dy, y, x: (np.full(x.shape, dy, dtype=x.dtype),)),
}


def register_reference_ops(monkeypatch):
    """Add :data:`REFERENCE_OPS` to the engine's op table until `monkeypatch`
    undoes its changes; neither table may shadow a rule of the other."""
    assert not set(REFERENCE_OPS) & set(cl.graph._OPS)
    for op, rule in REFERENCE_OPS.items():
        monkeypatch.setitem(cl.graph._OPS, op, rule)


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
            raise cl.NonFiniteError(f"non-finite perturbation result at element {i}")
        err = abs(aflat[i] - fd) / max(abs(aflat[i]), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


def graph_fd_error(graph, bindings, params, name, step):
    """finite_difference_check of parameter `name` of a graph with a scalar
    "loss" output, the other parameters held at `params`."""
    analytic = cl.backward(graph, cl.forward_eval(graph, bindings, params))[name]
    return finite_difference_check(
        lambda value: float(
            cl.forward_eval(graph, bindings, {**params, name: value}).outputs["loss"]),
        params[name], analytic, step)


def batch_fd_errors(network, inputs, targets, mask, step):
    """{parameter: finite_difference_check error} of the mean loss of one
    multi-step batch, its gradients backpropagated through time."""
    from classlm.training import batch_gradients, batch_loss

    _, grads = batch_gradients(network, inputs, targets, mask, None)
    return {name: finite_difference_check(
        lambda value: batch_loss(network, inputs, targets, mask, None,
                                 {**network.params, name: value})[0],
        network.params[name], grads[name], step) for name in network.params}


def word_distribution(network, probs_row):
    """Brute-force P(w | history) for every word from one class distribution."""
    class_of = network.classes.class_of
    membership = network.classes.membership
    return probs_row[class_of] * membership


def class_members(classmap):
    """The word ids of each class, in word-id order, from its `member_tables`."""
    words, starts, sizes, _ = classmap.member_tables
    return [words[a:a + n].tolist() for a, n in zip(starts.tolist(), sizes.tolist())]


def partitions_into_k(items, k):
    """All set partitions of `items` into exactly k non-empty classes."""
    items = list(items)
    if k == 1:
        yield [items]
        return
    if len(items) == k:
        yield [[x] for x in items]
        return
    first, rest = items[0], items[1:]
    for part in partitions_into_k(rest, k):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
    for part in partitions_into_k(rest, k - 1):
        yield part + [[first]]


def loglik_of_partition(stream_words, vocab, groups, num_regular):
    """Closed-form objective of an explicit partition (oracle side)."""
    stream = [id_of(vocab, t) for t in stream_words]
    class_of = np.zeros(len(vocab), dtype=np.int64)
    for c, members in enumerate(groups):
        for w in members:
            class_of[w] = c
    for offset, tok in enumerate(cl.vocabulary.RESERVED):
        class_of[vocab.ids[tok]] = num_regular + offset
    counts = np.bincount(stream, minlength=len(vocab)).astype(float)
    classmap = cl.ClassMap.from_counts(class_of, np.maximum(counts, 1e-12),
                                       num_regular + len(cl.vocabulary.RESERVED))
    stats = cl.BigramStats(stream, classmap)
    return cl.class_bigram_loglik(stats)


def brute_force_exchange_optimum(stream_words, vocab, num_classes):
    """Exhaustive-enumeration optimum of the exchange objective."""
    words = [w for w in range(len(vocab)) if vocab.words[w] not in cl.vocabulary.RESERVED]
    best = -np.inf
    for groups in partitions_into_k(words, num_classes):
        best = max(best, loglik_of_partition(stream_words, vocab, groups, num_classes))
    return best


def family_corpus(rng, n_families, types_per_family, length, noise=0.15):
    """Markov text alternating between word families (clear class structure)."""
    families = [[f"f{f}w{i}" for i in range(types_per_family)] for f in range(n_families)]
    stream = []
    fam = 0
    for _ in range(length):
        if rng.random() < noise:
            fam = int(rng.integers(n_families))
        stream.append(families[fam][int(rng.integers(types_per_family))])
        fam = (fam + 1) % n_families
    return stream


def markov_corpus(rng, vocab_size=50, n_tokens=20000, preferred=5, min_len=6, max_len=13):
    """Sentences sampled from a random bigram model with strong structure."""
    words = [f"w{i:02d}" for i in range(vocab_size)]
    trans = np.full((vocab_size, vocab_size), 0.02)
    for i in range(vocab_size):
        js = rng.choice(vocab_size, size=preferred, replace=False)
        trans[i, js] += 5.0
    trans /= trans.sum(axis=1, keepdims=True)
    sentences, total = [], 0
    while total < n_tokens:
        n = int(rng.integers(min_len, max_len))
        w = int(rng.integers(vocab_size))
        sent = [words[w]]
        for _ in range(n - 1):
            w = int(rng.choice(vocab_size, p=trans[w]))
            sent.append(words[w])
        sentences.append(sent)
        total += n
    return sentences


def matmul_rows(monkeypatch):
    """A list that gets ``(rows, stacked)`` for every later matmul whose left
    operand is time-major: its row count, and whether the right operand
    stacks gates (a recurrent layer's input products)."""
    calls = []
    rows = cl.graph._rows

    def spy(a, b):
        if a.ndim == 3:
            calls.append((a.shape[1], b.ndim == 3))
        return rows(a, b)

    monkeypatch.setattr(cl.graph, "_rows", spy)
    return calls


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def strict_header(path):
    """A saved model's JSON header, read by a strict JSON reader: the bare
    tokens NaN, Infinity and -Infinity are errors."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    return json.loads(blob[start : start + header_len], parse_constant=_not_json)


def rewrite_header(path, edit):
    """Apply `edit` to a saved model's JSON header, keeping the payload."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + header_len])
    edit(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = MAGIC + struct.pack("<Q", len(new_header)) + new_header
    payload_start = start + header_len + ((-(start + header_len)) % 16)
    path.write_bytes(prefix + b"\0" * ((-len(prefix)) % 16) + blob[payload_start:])


def id_of(vocab, word):
    """Id of `word`, falling back to the unknown token."""
    return vocab.ids.get(word, vocab.ids[UNKNOWN])


def word_of(vocab, word_id):
    return vocab.words[word_id]


def check_consistency(stats):
    """Verify a `BigramStats`' class bigram marginals against its unigram
    counts and its transposed table against the table."""
    row = stats.class_bigrams.sum(axis=1)
    col = stats.class_bigrams.sum(axis=0)
    if not (np.array_equal(row, stats.class_counts) and np.array_equal(col, stats.class_counts)
            and np.array_equal(stats.class_bigrams_t, stats.class_bigrams.T)):
        raise ValueError("class bigram tables do not match each other or the class counts")


# one n-best hypothesis, and one row of the per-hypothesis view of a reranking
Hypothesis = namedtuple("Hypothesis", "utterance_id acoustic backoff tokens")
Rescored = namedtuple("Rescored", "hypothesis log_p_nn lm_score total")


def nbest(by_utterance):
    """The `NBest` of ``{utterance: [Hypothesis, ...]}``, in that order."""
    names, acoustic, backoff, tokens = [], [], [], []
    for utt, hyps in by_utterance.items():
        for h in hyps:
            names.append(utt)
            acoustic.append(h.acoustic)
            backoff.append(h.backoff)
            tokens.append(h.tokens)
    return cl.NBest.from_columns(names, acoustic, backoff, tokens)


def by_utterance(nbest):
    """``{utterance: [Hypothesis, ...]}`` of an `NBest`: the inverse of
    :func:`nbest`."""
    names = [utt for utt, n in zip(nbest.utterances, nbest.counts.tolist()) for _ in range(n)]
    hyps = map(Hypothesis, names, nbest.acoustic.tolist(), nbest.backoff.tolist(), nbest.tokens)
    return {utt: [next(hyps) for _ in range(n)]
            for utt, n in zip(nbest.utterances, nbest.counts.tolist())}


def rescore_nbest(nbest, network, params, unk_policy="include", nn_scores=None):
    """The per-hypothesis view of `rank_hypotheses`: ``{utterance:
    [Rescored, ...]}``, best first.  With `nn_scores` given, the network is
    not run."""
    if nn_scores is None:
        nn_scores = score_hypotheses(nbest, network, unk_policy)
    order, nn, lm, totals = (a.tolist() for a in rank_hypotheses(nbest, nn_scores, params))
    return {utt: [Rescored(hyps[i], nn[u][i], lm[u][i], totals[u][i])
                  for i in order[u][:len(hyps)]]
            for u, (utt, hyps) in enumerate(by_utterance(nbest).items())}


def read_nbest_lines(path):
    """The line-at-a-time n-best reader: each line's field count, then its
    two scores by ``float``, then their finiteness, the first failing line
    named; the hypotheses grouped by utterance in line order."""
    by_utterance = {}
    for line_no, line in enumerate(text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 4:
            raise ValueError(
                f"{path}: line {line_no}: expected 'utt_id acoustic backoff words...'"
            )
        try:
            acoustic = float(parts[1])
            backoff = float(parts[2])
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: scores are not numbers")
        if not (math.isfinite(acoustic) and math.isfinite(backoff)):
            raise ValueError(f"{path}: line {line_no}: scores must be finite")
        by_utterance.setdefault(parts[0], []).append(
            Hypothesis(parts[0], acoustic, backoff, tuple(parts[3:])))
    if not by_utterance:
        raise ValueError(f"{path}: no hypotheses")
    return nbest(by_utterance)


class _ErrorRecords(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def run_cli(argv):
    """Run ``classlm.cli.main`` on `argv`; returns its exit status and the
    records of the errors it logged."""
    errors = _ErrorRecords()
    logger = logging.getLogger("classlm")
    logger.addHandler(errors)
    try:
        return main(argv), errors.records
    finally:
        logger.removeHandler(errors)
