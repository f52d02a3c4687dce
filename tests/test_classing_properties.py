"""Property tests of the exchange algorithm on random small corpora."""

import numpy as np
import pytest

import classlm as cl
from classlm.classing import MIN_GAIN, BigramStats
from classlm.vocabulary import RESERVED

import support
from test_classing import DictBigramStats, brute_force_loglik

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def corpus_and_classes(draw):
    n_types = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, n_types - 1), min_size=2, max_size=80))
    words = [f"w{i}" for i in ids]
    num_classes = draw(st.integers(1, len(set(words))))
    scheme = draw(st.sampled_from(["striped", "random"]))
    return words, num_classes, scheme, draw(st.integers(0, 100))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(corpus_and_classes())
def test_exchange_trace_partition_and_objective(case):
    words, num_classes, scheme, seed = case
    vocab, cm, trace = cl.run_exchange([words], num_classes, scheme=scheme, seed=seed,
                                       max_passes=4)
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    sizes = np.bincount(cm.class_of, minlength=cm.num_classes)
    assert cm.num_classes == num_classes + len(RESERVED) and (sizes > 0).all()
    groups = support.class_members(cm)
    for offset, tok in enumerate(RESERVED):
        assert groups[num_classes + offset] == [vocab.ids[tok]]
    stream = [support.id_of(vocab, t) for t in words]
    counts = np.bincount(stream, minlength=len(vocab))
    assert trace[-1] == pytest.approx(brute_force_loglik(stream, cm.class_of, counts), abs=1e-8)


@st.composite
def corpus_and_moves(draw):
    n_types = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(0, n_types - 1), min_size=2, max_size=300))
    words = [f"w{i}" for i in ids]
    num_classes = draw(st.integers(1, len(set(words))))
    return words, num_classes, draw(st.integers(0, 100)), draw(st.booleans())


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(corpus_and_moves())
def test_tables_equal_dict_reference_after_every_move(case):
    words, num_classes, seed, movable_all = case
    vocab = cl.build_vocabulary([words])
    cm = cl.initialize_classes(vocab, num_classes, scheme="random", seed=seed)
    stream = np.array([support.id_of(vocab, t) for t in words])
    movable = np.arange(cm.num_classes if movable_all else num_classes)
    stats = BigramStats(stream, cm, movable_classes=movable)
    ref = DictBigramStats(stream, cm.class_of, cm.num_classes, movable)
    for _ in range(2):
        for w in np.argsort(-stats.word_counts, kind="stable"):
            if stats.word_counts[w] == 0 or stats.class_sizes[stats.class_of[w]] <= 1:
                continue
            deltas = stats.move_deltas(w)
            b = int(np.argmax(deltas))
            if deltas[b] > MIN_GAIN:
                stats.apply_move(w, b)
                ref.apply_move(w, b)
                support.check_consistency(stats)
                np.testing.assert_array_equal(stats.class_bigrams, ref.class_bigrams)
                np.testing.assert_array_equal(stats.class_bigrams_t, ref.class_bigrams.T)
                np.testing.assert_array_equal(stats.class_counts, ref.class_counts)
