"""Property tests of the exchange algorithm on random small corpora."""

import types

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


def _one_sum_loglik(stats):
    """The log-likelihood with the count table looked up and summed whole."""
    f = stats.xlogx
    return float(f[stats.class_bigrams].sum() - 2.0 * f[stats.class_counts].sum()
                 + f[stats.word_counts].sum())


def _random_stats(seed, shape):
    """Counts of the given table shape over an x ln x table of random
    doubles whose magnitudes span 16 decades, so that another order of
    additions rounds differently."""
    rng = np.random.default_rng(seed)
    f = rng.random(5000) * 10.0 ** rng.uniform(-8, 8, 5000)
    return types.SimpleNamespace(xlogx=f, class_bigrams=rng.integers(0, f.size, shape),
                                 class_counts=rng.integers(0, f.size, shape[-1]),
                                 word_counts=rng.integers(0, f.size, 40))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(budget=st.integers(1, 300), pieces=st.integers(0, 12),
                  offset=st.integers(-9, 9), cols=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_the_log_likelihood_in_pieces_equals_one_table_sum_bitwise(budget, pieces, offset, cols,
                                                                   seed):
    # tables of a few pieces of a small budget, around their ends and
    # around numpy's leaves of 128 values
    cells = max(1, pieces * max(budget, 128) + offset)
    stats = _random_stats(seed, (-(-cells // cols), cols))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cl.classing, "BLOCK_CELLS", budget)
        assert cl.class_bigram_loglik(stats) == _one_sum_loglik(stats)


def test_the_log_likelihood_of_a_thousand_classes_equals_one_table_sum_bitwise():
    for seed in range(3):
        stats = _random_stats(seed, (1003, 1003))
        assert cl.class_bigram_loglik(stats) == _one_sum_loglik(stats)
