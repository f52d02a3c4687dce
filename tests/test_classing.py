"""Vocabulary construction, the class-bigram objective and the exchange
algorithm, each checked against independent brute-force oracles."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import classlm as cl
from classlm.classing import BigramStats, ClassMap, class_bigram_loglik, exchange_pass
from classlm.vocabulary import RESERVED, frame_sentences

import support


def brute_force_loglik(stream_ids, class_of, word_counts):
    """Directly evaluate sum log P(w_t | w_{t-1}) over the circular stream
    under the ML class bigram model; independent of the closed form."""
    stream_ids = list(stream_ids)
    n_classes = int(max(class_of)) + 1
    n_cc = np.zeros((n_classes, n_classes))
    n_c = np.zeros(n_classes)
    for i, w in enumerate(stream_ids):
        nxt = stream_ids[(i + 1) % len(stream_ids)]
        n_cc[class_of[w], class_of[nxt]] += 1
        n_c[class_of[w]] += 1
    total = 0.0
    for i, w in enumerate(stream_ids):
        nxt = stream_ids[(i + 1) % len(stream_ids)]
        c1, c2 = class_of[w], class_of[nxt]
        total += np.log(n_cc[c1, c2] / n_c[c1])            # P(c2 | c1)
        total += np.log(word_counts[nxt] / n_c[c2])        # P(w | c2)
    return total


def _add_in_order(rows):
    """rows[0] + rows[1] + ..., added one after another: the d terms of each
    class in the order of the d, whatever memory order numpy gives `rows`."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


class DictBigramStats:
    """Reference exchange statistics: per-word successor/predecessor dicts
    and float count tables, x ln x evaluated directly.  `move_deltas` of
    `BigramStats` must equal this one's bitwise."""

    def __init__(self, stream, class_of, num_classes, movable_classes):
        n_words = class_of.size
        self.word_counts = np.bincount(stream, minlength=n_words).astype(np.float64)
        self.succ = [dict() for _ in range(n_words)]
        self.pred = [dict() for _ in range(n_words)]
        nxt = np.roll(stream, -1)
        for a, b in zip(stream.tolist(), nxt.tolist()):
            self.succ[a][b] = self.succ[a].get(b, 0) + 1
            self.pred[b][a] = self.pred[b].get(a, 0) + 1
        self.class_of = class_of.copy()
        self.num_classes = k = num_classes
        self.class_counts = np.bincount(class_of, weights=self.word_counts, minlength=k)
        self.class_bigrams = np.zeros((k, k))
        np.add.at(self.class_bigrams, (class_of[stream], class_of[nxt]), 1.0)
        self._movable_mask = np.zeros(k, dtype=bool)
        self._movable_mask[movable_classes] = True

    @staticmethod
    def _xlogx(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        np.multiply(x, np.log(x, out=np.ones_like(x), where=x > 0), out=out, where=x > 0)
        return out

    def _transition_mass(self, w):
        k = self.num_classes
        s = np.zeros(k)
        p = np.zeros(k)
        for v, cnt in self.succ[w].items():
            if v != w:
                s[self.class_of[v]] += cnt
        for v, cnt in self.pred[w].items():
            if v != w:
                p[self.class_of[v]] += cnt
        return s, p, float(self.succ[w].get(w, 0))

    def move_deltas(self, w):
        f = self._xlogx
        a = int(self.class_of[w])
        k = self.num_classes
        s, p, self_count = self._transition_mass(w)
        nw = self.word_counts[w]
        bg = self.class_bigrams
        row_a = bg[a, :].copy()
        col_a = bg[:, a].copy()
        rem_s = f(row_a - s) - f(row_a)
        rem_p = f(col_a - p) - f(col_a)
        rem_s[a] = 0.0
        rem_p[a] = 0.0
        rem_total = rem_s.sum() + rem_p.sum()
        ins_s = np.zeros(k)
        ds = np.nonzero(s)[0]
        ds = ds[ds != a]
        if ds.size:
            block = bg[:, ds]
            ins_s = _add_in_order((f(block + s[ds]) - f(block)).T)
            ins_s[ds] -= (f(bg[ds, ds] + s[ds]) - f(bg[ds, ds]))
        ins_p = np.zeros(k)
        dp = np.nonzero(p)[0]
        dp = dp[dp != a]
        if dp.size:
            block = bg[dp, :]
            ins_p = _add_in_order(f(block + p[dp][:, None]) - f(block))
            ins_p[dp] -= (f(bg[dp, dp] + p[dp]) - f(bg[dp, dp]))
        diag = np.diagonal(bg)
        corner_aa = float(f(bg[a, a] - s[a] - p[a] - self_count) - f(bg[a, a]))
        corner_bb = f(diag + s + p + self_count) - f(diag)
        corner_ab = f(row_a - s + p[a]) - f(row_a)
        corner_ba = f(col_a + s[a] - p) - f(col_a)
        pair_delta = (
            rem_total - rem_s - rem_p + ins_s + ins_p
            + corner_aa + corner_bb + corner_ab + corner_ba
        )
        cc = self.class_counts
        uni_delta = -2.0 * (float(f(cc[a] - nw) - f(cc[a])) + f(cc + nw) - f(cc))
        deltas = pair_delta + uni_delta
        deltas[a] = -np.inf
        deltas[~self._movable_mask] = -np.inf
        return deltas

    def apply_move(self, w, b):
        a = int(self.class_of[w])
        s, p, self_count = self._transition_mass(w)
        bg = self.class_bigrams
        bg[a, :] -= s
        bg[:, a] -= p
        bg[b, :] += s
        bg[:, b] += p
        bg[a, a] -= self_count
        bg[b, b] += self_count
        nw = self.word_counts[w]
        self.class_counts[a] -= nw
        self.class_counts[b] += nw
        self.class_of[w] = b


# -- vocabulary ---------------------------------------------------------------


def test_build_vocabulary_counts_and_reserved():
    vocab = cl.build_vocabulary([["a", "b", "a"]])
    assert vocab.words[:3] == list(RESERVED)
    assert vocab.counts[vocab.ids["a"]] == 2
    assert vocab.counts[vocab.ids["b"]] == 1
    assert len(vocab) == 5


def test_build_vocabulary_max_size_keeps_top_words():
    vocab = cl.build_vocabulary([["a", "b", "a"]], max_size=4)
    assert "a" in vocab and "b" not in vocab
    assert support.id_of(vocab, "b") == vocab.unk_id
    assert len(vocab) == 4


def test_build_vocabulary_tie_break_by_first_occurrence():
    vocab = cl.build_vocabulary([["y", "x", "y", "x"]], max_size=4)
    assert "y" in vocab and "x" not in vocab


def test_build_vocabulary_rejects_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        cl.build_vocabulary([])


def test_frame_adds_boundaries_and_unk():
    vocab = cl.build_vocabulary([["a"]])
    stream, words = frame_sentences(vocab, [["a", "zzz"], []])
    assert stream.tolist() == [vocab.start_id, vocab.ids["a"], vocab.unk_id, vocab.end_id,
                               vocab.start_id, vocab.end_id]
    assert words.tolist() == [2, 0]


# -- objective closed form ---------------------------------------------------


def _stats_for(stream_words, class_groups, num_regular):
    vocab = cl.build_vocabulary([stream_words])
    stream = [support.id_of(vocab, t) for t in stream_words]
    class_of = np.zeros(len(vocab), dtype=np.int64)
    for c, members in enumerate(class_groups):
        for w in members:
            class_of[vocab.ids[w]] = c
    for off, tok in enumerate(RESERVED):
        class_of[vocab.ids[tok]] = num_regular + off
    counts = np.bincount(stream, minlength=len(vocab)).astype(float)
    cm = ClassMap.from_counts(class_of, np.maximum(counts, 1e-12),
                              num_regular + len(RESERVED))
    return vocab, stream, BigramStats(stream, cm)


def test_singleton_classes_give_word_bigram_likelihood():
    words = list("abcab cabba".replace(" ", ""))
    types = sorted(set(words))
    vocab, stream, stats = _stats_for(words, [[t] for t in types], len(types))
    value = class_bigram_loglik(stats)
    # with singleton classes P(w|c) = 1, so this is the word bigram ML value
    oracle = brute_force_loglik(stream, stats.class_of, stats.word_counts)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_one_class_reduces_to_unigram_likelihood():
    words = ["a", "b", "a"]
    vocab, stream, stats = _stats_for(words, [["a", "b"]], 1)
    value = class_bigram_loglik(stats)
    # direct unigram probability of the 3-token corpus: P = prod N(w)/N
    direct = 2 * np.log(2 / 3) + np.log(1 / 3)
    assert value == pytest.approx(direct, abs=1e-10)
    closed = sum(c * np.log(c) for c in (2, 1)) - 3 * np.log(3)
    assert value == pytest.approx(closed, abs=1e-10)


def test_two_class_toy_matches_brute_force():
    words = ["a", "b", "a", "b", "a", "b", "b", "a"]
    vocab, stream, stats = _stats_for(words, [["a"], ["b"]], 2)
    value = class_bigram_loglik(stats)
    oracle = brute_force_loglik(stream, stats.class_of, stats.word_counts)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_marginal_consistency_invariant():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in rng.integers(0, 6, size=100)]
    vocab = cl.build_vocabulary([words])
    cm = cl.initialize_classes(vocab, 3)
    stats = BigramStats([support.id_of(vocab, t) for t in words], cm)
    support.check_consistency(stats)


# -- initialization -----------------------------------------------------------


def test_striped_initialization_by_frequency_rank():
    corpus = [["w1"] * 8 + ["w2"] * 6 + ["w3"] * 4 + ["w4"] * 2]
    vocab = cl.build_vocabulary(corpus)
    cm = cl.initialize_classes(vocab, 2)
    ids = {w: vocab.ids[w] for w in ("w1", "w2", "w3", "w4")}
    assert cm.class_of[ids["w1"]] == cm.class_of[ids["w3"]] == 0
    assert cm.class_of[ids["w2"]] == cm.class_of[ids["w4"]] == 1


def test_single_class_initialization_and_reserved_singletons():
    vocab = cl.build_vocabulary([["a", "b", "c"]])
    cm = cl.initialize_classes(vocab, 1)
    word_ids = [vocab.ids[w] for w in ("a", "b", "c")]
    assert all(cm.class_of[w] == 0 for w in word_ids)
    reserved_classes = {int(cm.class_of[vocab.ids[t]]) for t in RESERVED}
    assert reserved_classes == {1, 2, 3}
    groups = support.class_members(cm)
    assert all(len(groups[c]) == 1 for c in reserved_classes)


def test_initialization_rejects_too_many_classes():
    vocab = cl.build_vocabulary([["a", "b"]])
    with pytest.raises(ValueError, match="num_classes"):
        cl.initialize_classes(vocab, 3)


# -- exchange algorithm --------------------------------------------------------


def test_fixed_point_pass_reports_no_improvement():
    words = ["a", "b"] * 10
    vocab, stream, stats = _stats_for(words, [["a"], ["b"]], 2)
    reserved = [vocab.ids[t] for t in RESERVED]
    improved, delta = exchange_pass(stats, reserved)
    assert improved is False and delta == 0.0


def test_accepted_moves_match_recomputation(rng):
    # every accepted incremental delta equals a from-scratch objective
    # difference within 1e-8
    for trial in range(12):
        n_types = int(rng.integers(3, 8))
        words = [f"w{i}" for i in rng.integers(0, n_types, size=int(rng.integers(30, 200)))]
        vocab = cl.build_vocabulary([words])
        k = int(min(3, n_types))
        cm = cl.initialize_classes(vocab, k, scheme="random", seed=trial)
        stream = [support.id_of(vocab, t) for t in words]
        stats = BigramStats(stream, cm, movable_classes=np.arange(k))
        for w in range(len(vocab)):
            if vocab.words[w] in RESERVED or stats.word_counts[w] == 0:
                continue
            if stats.class_sizes[stats.class_of[w]] <= 1:
                continue
            deltas = stats.move_deltas(w)
            before = class_bigram_loglik(stats)
            b = int(np.argmax(deltas))
            if not np.isfinite(deltas[b]):
                continue
            stats.apply_move(w, b)
            after = class_bigram_loglik(stats)
            assert after - before == pytest.approx(deltas[b], abs=1e-8)


def _assert_deltas_match_reference(words, num_classes, seed, movable_all=False, passes=3):
    """Run exchange passes on `BigramStats` and the dict reference side by
    side; every delta vector must be bitwise equal, move after move.

    Returns a Counter of the visits and, per visit, whether the word has a
    successor and a predecessor in its own class and a self loop."""
    vocab = cl.build_vocabulary([words])
    cm = cl.initialize_classes(vocab, num_classes, scheme="random", seed=seed)
    stream = np.array([support.id_of(vocab, t) for t in words])
    movable = np.arange(cm.num_classes if movable_all else num_classes)
    stats = BigramStats(stream, cm, movable_classes=movable)
    ref = DictBigramStats(stream, cm.class_of, cm.num_classes, movable)
    assert class_bigram_loglik(stats) == pytest.approx(
        brute_force_loglik(stream, cm.class_of, stats.word_counts), abs=1e-8)
    seen = Counter()
    for _ in range(passes):
        for w in np.argsort(-stats.word_counts, kind="stable"):
            if stats.word_counts[w] == 0 or stats.class_sizes[stats.class_of[w]] <= 1:
                continue
            deltas = stats.move_deltas(w)
            assert np.array_equal(deltas, ref.move_deltas(w)), f"word {w}"
            a = int(ref.class_of[w])
            s, p, self_count = ref._transition_mass(w)
            seen.update(["visits", ("succ in own class", bool(s[a])),
                         ("pred in own class", bool(p[a])), ("self loop", bool(self_count))])
            b = int(np.argmax(deltas))
            if deltas[b] > 1e-9:
                stats.apply_move(w, b)
                ref.apply_move(w, b)
        np.testing.assert_array_equal(stats.class_of, ref.class_of)
    support.check_consistency(stats)
    np.testing.assert_array_equal(stats.class_bigrams, ref.class_bigrams)
    np.testing.assert_array_equal(stats.class_counts, ref.class_counts)
    return seen


def test_move_deltas_equal_dict_reference_bitwise(rng):
    seen = Counter()
    for trial in range(12):
        n_types = int(rng.integers(3, 150))
        length = int(rng.integers(2, 2500))
        words = [f"w{i}" for i in rng.zipf(1.3, size=length) % n_types]
        n_regular = len(set(words))
        k = int(rng.integers(1, min(50, n_regular) + 1))
        seen += _assert_deltas_match_reference(words, k, seed=trial, movable_all=trial % 3 == 0)
    assert seen["visits"] > 1000

    # 250 classes over 6,000 Zipf tokens: as with many classes on a real
    # corpus, most class bigram cells are empty
    words = [f"w{i}" for i in rng.zipf(1.2, size=6000) % 900]
    vocab = cl.build_vocabulary([words])
    stats = BigramStats([support.id_of(vocab, t) for t in words],
                        cl.initialize_classes(vocab, 250))
    assert np.count_nonzero(stats.class_bigrams) < 0.1 * stats.class_bigrams.size
    sparse = _assert_deltas_match_reference(words, 250, seed=4, passes=1)
    assert sparse["visits"] > 500
    # each shortcut for a zero mass at the word's own class or a zero self
    # loop is taken, and each full computation for a nonzero one
    for branch in ("succ in own class", "pred in own class", "self loop"):
        assert sparse[(branch, True)] > 0 and sparse[(branch, False)] > 0, branch


def test_move_deltas_equal_dict_reference_on_edge_cases():
    # one regular class: its count is the whole stream, N
    _assert_deltas_match_reference(["a", "b", "a", "c", "b", "a"], 1, seed=0, movable_all=True)
    # a word repeated many times in a row: heavy self loops
    words = ["a"] * 50 + ["b", "c"] * 5 + ["a"] * 30 + ["d"] * 20
    for k in (1, 2, 3):
        _assert_deltas_match_reference(words, k, seed=k, movable_all=True)
    # a two-token corpus, including one where both tokens are one word
    _assert_deltas_match_reference(["a", "b"], 1, seed=0, movable_all=True)
    _assert_deltas_match_reference(["a", "b"], 2, seed=0, movable_all=True)
    _assert_deltas_match_reference(["a", "a"], 1, seed=0, movable_all=True)


@pytest.mark.parametrize("budget", [3, 40, 300, 2000])
def test_move_deltas_in_column_tiles_equal_dict_reference_bitwise(rng, monkeypatch, budget):
    # at these budgets most visits sum their block in several column tiles;
    # at 2,000 a range(0, K, width) split leaves some visit of 8 rows or
    # more a one-column last tile, which numpy would sum pairwise
    monkeypatch.setattr(cl.classing, "BLOCK_CELLS", budget)
    column_tiles = cl.classing._column_tiles
    tiled = []

    def recording(rows, k):
        bounds = column_tiles(rows, k)
        tiled.append((rows, k, bounds))
        return bounds

    monkeypatch.setattr(cl.classing, "_column_tiles", recording)
    words = [f"w{i}" for i in rng.zipf(1.2, size=6000) % 900]
    _assert_deltas_match_reference(words, 250, seed=4, passes=1)
    for trial in range(6):
        n_types = int(rng.integers(3, 150))
        words = [f"w{i}" for i in rng.zipf(1.3, size=int(rng.integers(2, 2500))) % n_types]
        k = int(rng.integers(1, min(50, len(set(words))) + 1))
        _assert_deltas_match_reference(words, k, seed=trial, movable_all=trial % 3 == 0)
    for rows, k, bounds in tiled:
        widths = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == k and (widths >= 2).all()
        assert widths.max() * rows <= budget or widths.max() <= 3
    assert sum(len(bounds) > 2 for _, _, bounds in tiled) > 100
    assert any(rows >= 8 and k % max(2, budget // rows) == 1 and len(bounds) > 2
               for rows, k, bounds in tiled)


@pytest.fixture(scope="module")
def thousand_classes():
    """Exchange statistics of 1,000 classes on 30,000 Zipf tokens, and the
    most frequent word, whose block of neighbour classes is 26 times
    `BLOCK_CELLS`."""
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in (rng.zipf(1.2, size=30000) % 3000).tolist()]
    vocab, stream = cl.vocabulary.index_tokens(words)
    stats = BigramStats(stream, cl.initialize_classes(vocab, 1000))
    widest = int(np.argmax(stats.word_counts))
    return stats, widest


def _traced_peak(call):
    """Bytes that `call()` allocates at its peak beyond what it starts with."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_a_wide_visit_takes_its_block_in_tiles(thousand_classes):
    # the block taken whole peaks at 22.8 MB on this visit, its |d| x K
    # cells at about 13 bytes each; in tiles the visit reads 1.6 times
    # BLOCK_CELLS x 16 bytes
    stats, w = thousand_classes
    s, p, ds, dp, _ = stats._transition_mass(w)
    a = stats.class_of[w]
    block_cells = (ds.size - bool(s[a]) + dp.size - bool(p[a])) * stats.num_classes
    assert block_cells >= 4 * cl.classing.BLOCK_CELLS
    stats._visit = None, None
    assert _traced_peak(lambda: stats.move_deltas(w)) < 2 * cl.classing.BLOCK_CELLS * 16


def test_the_log_likelihood_sums_the_table_in_pieces(thousand_classes):
    # K^2 = 1,006,009 cells, 8 MB as doubles all at once; in pieces the sum
    # reads 1.1 times BLOCK_CELLS x 8 bytes
    stats, _ = thousand_classes
    assert stats.class_bigrams.size >= 15 * cl.classing.BLOCK_CELLS
    assert _traced_peak(lambda: class_bigram_loglik(stats)) < 2 * cl.classing.BLOCK_CELLS * 8


def test_indexing_holds_a_piece_of_tokens_and_12_bytes_a_token(rng, monkeypatch):
    # each token a new string, as a reader makes them, and pieces small
    # beside the ids: 4N tokens peak at most 3N x 12 bytes above N tokens
    # (a 4-byte code and an 8-byte id a token), where holding every token
    # would add some 60 bytes a token more
    monkeypatch.setattr(cl.vocabulary, "PIECE_TOKENS", 512)
    n = 25_000
    peaks = []
    for size in (n, 4 * n):
        ids = (rng.zipf(1.3, size=size) % 500).tolist()
        peaks.append(_traced_peak(lambda: cl.vocabulary.index_tokens(map("w{}".format, ids))))
    assert peaks[1] - peaks[0] <= 3 * n * 12 + 64 * 1024


def test_csr_neighbours_equal_circular_pair_counts(rng):
    for words in (["x", "y"], ["x", "x"], ["x", "y", "x", "x", "z"],
                  [f"w{i}" for i in rng.integers(0, 30, size=700)]):
        vocab = cl.build_vocabulary([words])
        stream = [support.id_of(vocab, t) for t in words]
        stats = BigramStats(stream, cl.initialize_classes(vocab, 1))
        pairs = Counter(zip(stream, stream[1:] + stream[:1]))  # wrap pair last -> first
        for w in range(len(vocab)):
            lo, hi = stats.succ_ptr[w], stats.succ_ptr[w + 1]
            succ = dict(zip(stats.succ_ids[lo:hi].tolist(), stats.succ_counts[lo:hi].tolist()))
            assert succ == {b: n for (a, b), n in pairs.items() if a == w and b != w}
            lo, hi = stats.pred_ptr[w], stats.pred_ptr[w + 1]
            pred = dict(zip(stats.pred_ids[lo:hi].tolist(), stats.pred_counts[lo:hi].tolist()))
            assert pred == {a: n for (a, b), n in pairs.items() if b == w and a != w}
            assert stats.self_loops[w] == pairs.get((w, w), 0)


def test_exchange_never_empties_a_class(rng):
    words = [f"w{i}" for i in rng.integers(0, 5, size=120)]
    _, cm, _ = cl.run_exchange([words], 3, seed=1)
    sizes = np.bincount(cm.class_of, minlength=cm.num_classes)
    assert (sizes > 0).all()


def test_adversarial_init_reaches_brute_force_optimum_in_three_passes(rng):
    # four word types in two interleaved families; start from the worst
    # possible two-class split and let the exchange fix it
    words = []
    for _ in range(60):
        words += [f"d{rng.integers(2)}", f"n{rng.integers(2)}"]
    vocab = cl.build_vocabulary([words])
    target = support.brute_force_exchange_optimum(words, vocab, 2)

    stream = [support.id_of(vocab, t) for t in words]
    class_of = np.zeros(len(vocab), dtype=np.int64)
    class_of[vocab.ids["d0"]] = 0
    class_of[vocab.ids["n0"]] = 0
    class_of[vocab.ids["d1"]] = 1
    class_of[vocab.ids["n1"]] = 1
    for off, tok in enumerate(RESERVED):
        class_of[vocab.ids[tok]] = 2 + off
    counts = np.bincount(stream, minlength=len(vocab)).astype(float)
    cm = ClassMap.from_counts(class_of, np.maximum(counts, 1e-12), 5)
    stats = BigramStats(stream, cm, movable_classes=np.arange(2))
    reserved = [vocab.ids[t] for t in RESERVED]
    for _ in range(3):
        improved, _ = exchange_pass(stats, reserved)
        if not improved:
            break
    assert class_bigram_loglik(stats) == pytest.approx(target, abs=1e-8)


def test_identity_class_count_gives_word_bigram_value_and_no_moves():
    words = ["a", "b", "c", "a", "c", "b", "a"]
    vocab = cl.build_vocabulary([words])
    n_regular = len(vocab) - len(RESERVED)
    _, cm, trace = cl.run_exchange([words], n_regular)
    stream = [support.id_of(vocab, t) for t in words]
    stats = BigramStats(stream, cm)
    oracle = brute_force_loglik(stream, cm.class_of, stats.word_counts)
    assert trace[0] == pytest.approx(oracle, abs=1e-10)
    assert trace == [trace[0]] * len(trace)  # no pass ever improves


def test_one_class_membership_is_unigram_frequency():
    words = ["a", "a", "b", "c"]
    vocab, cm, _ = cl.run_exchange([words], 1)
    assert cm.membership[vocab.ids["a"]] == pytest.approx(0.5)
    assert cm.membership[vocab.ids["b"]] == pytest.approx(0.25)


def test_interleaved_families_end_up_separated(rng):
    words = support.family_corpus(rng, 2, 3, 400, noise=0.05)
    vocab, cm, trace = cl.run_exchange([words], 2, scheme="random", seed=3)
    fam0 = {int(cm.class_of[vocab.ids[f"f0w{i}"]]) for i in range(3)}
    fam1 = {int(cm.class_of[vocab.ids[f"f1w{i}"]]) for i in range(3)}
    assert len(fam0) == 1 and len(fam1) == 1 and fam0 != fam1
    target = support.brute_force_exchange_optimum(words, vocab, 2)
    assert trace[-1] == pytest.approx(target, abs=1e-8)


def test_trace_is_monotone_on_random_corpora(rng):
    for trial in range(20):
        n_types = int(rng.integers(3, 10))
        words = [f"w{i}" for i in rng.integers(0, n_types, size=int(rng.integers(20, 300)))]
        k = int(min(4, n_types))
        _, _, trace = cl.run_exchange([words], k, scheme="random", seed=trial)
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_run_exchange_is_deterministic(rng):
    words = [f"w{i}" for i in rng.integers(0, 12, size=500)]
    v1, cm1, t1 = cl.run_exchange([words], 4, scheme="random", seed=9)
    v2, cm2, t2 = cl.run_exchange([words], 4, scheme="random", seed=9)
    assert t1 == t2
    np.testing.assert_array_equal(cm1.class_of, cm2.class_of)
    np.testing.assert_array_equal(cm1.membership, cm2.membership)


def test_membership_sums_to_one_per_class(rng):
    words = [f"w{i}" for i in rng.integers(0, 20, size=800)]
    _, cm, _ = cl.run_exchange([words], 5, seed=2)
    for members in support.class_members(cm):
        assert abs(cm.membership[members].sum() - 1.0) < 1e-10


# -- class files ----------------------------------------------------------------


def test_class_file_round_trip(tmp_path, rng):
    words = [f"w{i}" for i in rng.integers(0, 10, size=300)]
    vocab, cm, _ = cl.run_exchange([words], 3, seed=5)
    path = tmp_path / "classes.tsv"
    cl.save_class_file(path, vocab, cm)
    vocab2, cm2 = cl.load_class_file(path)
    assert set(vocab2.words) == set(vocab.words)
    for w in vocab.words:
        assert cm2.class_of[vocab2.ids[w]] == cm.class_of[vocab.ids[w]]
        assert cm2.membership[vocab2.ids[w]] == pytest.approx(
            cm.membership[vocab.ids[w]], abs=1e-12
        )


def test_class_file_is_sorted_by_class_then_probability(tmp_path, rng):
    words = [f"w{i}" for i in rng.integers(0, 8, size=200)]
    vocab, cm, _ = cl.run_exchange([words], 2, seed=1)
    path = tmp_path / "classes.tsv"
    cl.save_class_file(path, vocab, cm)
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    keys = [(int(c), -float(p)) for _, c, p in rows]
    assert keys == sorted(keys)


def test_class_file_rows_follow_the_key_sort(tmp_path, rng):
    # tied and zero memberships (one of them -0.0), words out of class order
    memberships = [[0.25, 0.25, 0.5, 0.0], [0.5, 0.5], [1.0, 0.0, -0.0],
                   [0.2] * 5, [1.0]]
    class_of = np.concatenate([[c] * len(m) for c, m in enumerate(memberships)])
    membership = np.concatenate(memberships)
    perm = rng.permutation(class_of.size)
    cm = ClassMap(class_of[perm], membership[perm])
    vocab = cl.Vocabulary([f"w{i}" for i in range(class_of.size - len(RESERVED))])
    path = tmp_path / "classes.tsv"
    cl.save_class_file(path, vocab, cm)
    order = sorted(range(len(vocab)), key=lambda w: (int(cm.class_of[w]), -cm.membership[w], w))
    assert path.read_text() == "".join(
        f"{vocab.words[w]}\t{int(cm.class_of[w])}\t{float(cm.membership[w])!r}\n" for w in order)


def test_class_file_load_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("word_without_fields\n")
    with pytest.raises(ValueError, match="line 1"):
        cl.load_class_file(bad)
    bad.write_text("a\t0\t0.9\nb\t0\t0.9\n")
    with pytest.raises(ValueError, match="sum"):
        cl.load_class_file(bad)
    bad.write_text("a\t0\tnot_a_number\n")
    with pytest.raises(ValueError, match="line 1"):
        cl.load_class_file(bad)
    bad.write_text("a\t0\t0.5\na\t1\t0.5\n")
    with pytest.raises(ValueError, match="duplicate word"):
        cl.load_class_file(bad)
    bad.write_text("a\t2\t1.0\n")  # classes 0 and 1 would be empty
    with pytest.raises(ValueError, match="no members"):
        cl.load_class_file(bad)


def test_class_file_appends_missing_reserved_tokens(tmp_path):
    path = tmp_path / "classes.tsv"
    path.write_text("a\t0\t0.5\nb\t0\t0.5\n")
    vocab, cm = cl.load_class_file(path)
    groups = support.class_members(cm)
    for tok in RESERVED:
        c = int(cm.class_of[vocab.ids[tok]])
        assert groups[c] == [vocab.ids[tok]]
        assert cm.membership[vocab.ids[tok]] == 1.0


def test_class_file_memberships_equal_a_sum_per_class_bitwise(tmp_path, rng):
    # class sizes on both sides of the 8-element blocks of numpy's pairwise
    # sum; memberships off 1 by up to 5e-7, so each division changes bits
    sizes = [1, 7, 8, 9, 200]
    rows = []
    for c, n in enumerate(sizes):
        probs = rng.random(n)
        probs *= (1.0 + rng.uniform(-5e-7, 5e-7)) / probs.sum()
        rows += [(c, float(p)) for p in probs]
    order = rng.permutation(len(rows))  # members of a class far apart in the file
    lines = [f"w{i}\t{rows[j][0]}\t{rows[j][1]!r}\n" for i, j in enumerate(order)]
    path = tmp_path / "classes.tsv"
    path.write_text("".join(lines))
    vocab, cm = cl.load_class_file(path)

    # the reference: one scan of the class ids per class
    class_of = np.zeros(len(vocab), dtype=np.int64)
    membership = np.zeros(len(vocab))
    for line in lines:
        word, c, p = line.split("\t")
        class_of[vocab.ids[word]], membership[vocab.ids[word]] = int(c), float(p)
    for c in range(len(sizes)):
        members = np.nonzero(class_of == c)[0]
        membership[members] /= membership[members].sum()
    regular = np.arange(len(RESERVED), len(vocab))
    assert np.array_equal(cm.class_of[regular], class_of[regular])
    assert cm.membership[regular].tobytes() == membership[regular].tobytes()


@pytest.mark.parametrize("text, message", [
    # class 0 fails its sum, class 1 has no members: the lower class is named
    ("a\t0\t0.5\nb\t2\t1.0\nc\t2\t0.0\n", "memberships of class 0 sum to 0.5, not 1"),
    # class 1 has no members, class 2 fails its sum
    ("a\t0\t1.0\nb\t2\t0.5\nc\t2\t0.0\n", "class 1 has no members"),
    # class 1 fails its sum, class 2 too
    ("a\t0\t1.0\nb\t1\t0.25\nc\t2\t0.5\n", "memberships of class 1 sum to 0.25, not 1"),
])
def test_class_file_names_the_lowest_failing_class(tmp_path, text, message):
    path = tmp_path / "classes.tsv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        cl.load_class_file(path)
    assert str(err.value) == f"{path}: {message}"
