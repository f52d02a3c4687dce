"""Shared helpers for the test suite: tiny architectures, corpus generators
and independent oracles (set-partition enumeration, brute-force word
distributions)."""

import json
import struct

import numpy as np

import classlm as cl
from classlm.model_io import MAGIC

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


def graph_fd_error(graph, bindings, params, name, step):
    """finite_difference_check of parameter `name` of a graph with a scalar
    "loss" output, the other parameters held at `params`."""
    analytic = cl.backward(graph, cl.forward_eval(graph, bindings, params))[0][name]
    return cl.finite_difference_check(
        lambda value: float(
            cl.forward_eval(graph, bindings, {**params, name: value}).outputs["loss"]),
        params[name], analytic, step)


def batch_fd_errors(network, inputs, targets, mask, step):
    """{parameter: finite_difference_check error} of the mean loss of one
    multi-step batch, its gradients backpropagated through time."""
    from classlm.training import batch_gradients, batch_loss

    _, grads = batch_gradients(network, inputs, targets, mask, None)
    return {name: cl.finite_difference_check(
        lambda value: batch_loss(network, inputs, targets, mask, None,
                                 {**network.params, name: value})[0],
        network.params[name], grads[name], step) for name in network.params}


def word_distribution(network, probs_row):
    """Brute-force P(w | history) for every word from one class distribution."""
    class_of = network.classes.class_of
    membership = network.classes.membership
    return probs_row[class_of] * membership


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
    stream = [vocab.id_of(t) for t in stream_words]
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
