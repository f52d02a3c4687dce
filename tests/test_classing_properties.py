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


@st.composite
def class_maps(draw):
    """A class map of up to 60 words whose classes have many distinct sizes,
    singletons among them, with random count-based memberships."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    class_of = np.repeat(np.arange(len(sizes)), sizes)
    class_of = class_of[np.random.default_rng(draw(st.integers(0, 2**32))).permutation(
        len(class_of))]
    counts = draw(st.lists(st.integers(0, 1000), min_size=len(class_of),
                           max_size=len(class_of)))
    return cl.ClassMap.from_counts(class_of, counts, len(sizes))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(class_maps())
def test_member_tables_sum_each_class_as_one_cumsum_would(cm):
    words, starts, sizes, cumulative = cm.member_tables
    np.testing.assert_array_equal(words, np.argsort(cm.class_of, kind="stable"))
    np.testing.assert_array_equal(sizes, np.bincount(cm.class_of, minlength=cm.num_classes))
    m = cm.membership[words]
    expected = np.concatenate([np.cumsum(m[a:a + n])
                               for a, n in zip(starts.tolist(), sizes.tolist())])
    assert cumulative.tobytes() == expected.tobytes()
