"""Sentence scores against enumeration oracles, and perplexity conventions."""

import os
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import classlm as cl
from classlm.vocabulary import frame_sentences

import support


def _sentence_bits(scores, i):
    """Sentence i's total, counted tokens, and its predicted positions'
    log-probabilities and inclusion, as exact bytes."""
    n = scores.predicted[i]
    return (scores.totals[i].tobytes(), int(scores.counted[i]), scores.logp[i, :n].tobytes(),
            scores.included[i, :n].tobytes())


def _bits(scores):
    """Every array of a batch's scores as exact bytes."""
    return tuple(array.tobytes() for array in (scores.totals, scores.counted, scores.logp,
                                               scores.included, scores.predicted))


def _uniform_ten_word_network():
    """Seven words plus the three reserved tokens, one class each (10 classes),
    with a zeroed output layer: every prediction is exactly uniform."""
    words = [f"w{i}" for i in range(7)]
    vocab = cl.Vocabulary(words, {w: 1 for w in words})
    classes = cl.identity_classmap(vocab)
    desc = cl.parse_description(support.SMALL_ARCH)
    net = cl.instantiate_network(desc, vocab, classes, seed=0)
    net.params["output_layer/W"][:] = 0.0
    net.params["output_layer/b"][:] = 0.0
    return net, vocab


def test_single_class_score_is_membership_product():
    vocab = cl.Vocabulary(["a"], {"a": 1})
    membership = np.array([0.125, 0.25, 0.125, 0.5])  # <s> </s> <unk> a
    classes = cl.ClassMap(np.zeros(4, dtype=np.int64), membership, 1)
    desc = cl.parse_description(support.SMALL_ARCH)
    net = cl.instantiate_network(desc, vocab, classes, seed=2)
    scores = cl.score_arrays(net, [["a"]])
    assert scores.totals[0] == np.log(0.5) + np.log(0.25)
    assert scores.counted[0] == 2


def test_all_unknown_sentence_counts_only_the_end_token(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    excluded = cl.score_arrays(net, [["qq", "zz", "xx"]], unk_policy="exclude")
    assert excluded.counted[0] == 1
    assert excluded.included[0].tolist() == [False, False, False, True]
    included = cl.score_arrays(net, [["qq", "zz", "xx"]], unk_policy="include")
    assert included.counted[0] == 4


def test_history_advances_through_excluded_unknowns(rng):
    # the excluded position changes nothing about which tokens are scored,
    # but the unknown token still conditions later predictions
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    known = [net.vocab.words[4], net.vocab.words[5]]
    with_unk = cl.score_arrays(net, [[known[0], "OOV", known[1]]], unk_policy="exclude").logp[0]
    without = cl.score_arrays(net, [[known[0], known[1]]], unk_policy="exclude").logp[0]
    assert with_unk[0] == without[0]
    assert with_unk[2] != without[1]


def test_scores_match_enumeration_oracle(rng):
    # exp(total) equals the product over positions of the target's entry in
    # the brute-force full-vocabulary distribution
    net = support.random_class_network(rng, vocab_size=40, num_classes=7)
    vocab = net.vocab
    sentence = [vocab.words[int(rng.integers(3, len(vocab)))] for _ in range(6)]
    total = cl.score_arrays(net, [sentence]).totals[0]

    ids = frame_sentences(vocab, [sentence])[0]
    state = net.initial_state(1)
    product = 1.0
    for t in range(len(ids) - 1):
        probs, state = net.step(state, np.array([0]), np.array([ids[t]]))
        dist = support.word_distribution(net, probs[0])
        assert abs(dist.sum() - 1.0) < 1e-10
        product *= dist[ids[t + 1]]
    assert np.exp(total) == pytest.approx(product, rel=1e-9)


def test_policies_agree_on_unknown_free_corpus(rng):
    net = support.random_class_network(rng, vocab_size=10, num_classes=4)
    sentences = [
        [net.vocab.words[int(rng.integers(3, len(net.vocab)))] for _ in range(5)]
        for _ in range(4)
    ]
    for sent in sentences:
        inc = cl.score_arrays(net, [sent], "include")
        exc = cl.score_arrays(net, [sent], "exclude")
        assert inc.totals[0] == exc.totals[0] and inc.counted[0] == exc.counted[0]
    assert cl.corpus_perplexity(net, sentences, "include") == cl.corpus_perplexity(
        net, sentences, "exclude"
    )


def test_uniform_model_perplexity_equals_vocabulary_size():
    net, vocab = _uniform_ten_word_network()
    sentences = [["w0", "w3"], ["w5", "w6", "w1"]]
    assert cl.corpus_perplexity(net, sentences) == pytest.approx(10.0, abs=1e-6)


def test_single_sentence_perplexity_matches_definition(rng):
    net = support.random_class_network(rng, vocab_size=8, num_classes=3)
    sent = [net.vocab.words[4], net.vocab.words[5]]
    scores = cl.score_arrays(net, [sent])
    ppl = cl.corpus_perplexity(net, [sent])
    assert ppl == pytest.approx(np.exp(-scores.totals[0] / scores.counted[0]), rel=1e-12)


def test_perplexity_invariant_under_corpus_duplication(rng):
    net = support.random_class_network(rng, vocab_size=12, num_classes=4)
    sentences = [
        [net.vocab.words[int(rng.integers(3, len(net.vocab)))] for _ in range(4)]
        for _ in range(3)
    ]
    once = cl.corpus_perplexity(net, sentences)
    twice = cl.corpus_perplexity(net, sentences + sentences)
    assert twice == pytest.approx(once, rel=1e-9)


def test_empty_sentence_rejected(rng):
    net = support.random_class_network(rng, vocab_size=5, num_classes=2)
    with pytest.raises(ValueError, match="empty"):
        cl.score_arrays(net, [[]])


def test_invalid_policy_rejected(rng):
    net = support.random_class_network(rng, vocab_size=5, num_classes=2)
    with pytest.raises(ValueError, match="unk_policy"):
        cl.score_arrays(net, [["a"]], unk_policy="penalize")


def test_batched_scoring_equals_one_at_a_time(rng):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    sentences = [
        [net.vocab.words[int(rng.integers(3, len(net.vocab)))] for _ in range(int(rng.integers(1, 7)))]
        for _ in range(9)
    ]
    batched = cl.score_arrays(net, sentences)
    for i, sent in enumerate(sentences):
        assert _sentence_bits(cl.score_arrays(net, [sent]), 0) == _sentence_bits(batched, i)


@pytest.mark.parametrize("seed", range(20))
def test_batched_scoring_equals_one_at_a_time_any_seed(seed):
    # the body above holds for every batch, not only its fixture seed
    test_batched_scoring_equals_one_at_a_time(np.random.default_rng(seed))


def _framed_prefixes(net, sentences):
    stream, words = frame_sentences(net.vocab, sentences)
    return {tuple(ids[:t].tolist()) for ids in np.split(stream, np.cumsum(words + 2)[:-1])
            for t in range(1, len(ids))}


def test_each_prefix_runs_once(rng, monkeypatch):
    # an n-best-like list: variants of one sentence that differ late
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    w = net.vocab.words
    base = [w[int(i)] for i in rng.integers(3, len(w), size=9)]
    sentences = [base, base[:4], base[:6] + [w[3]], base[:6] + [w[4], w[5]], base,
                 base[:8] + [w[6]] + base[8:], [w[7]] + base[1:]]
    calls = []
    step_part = net._step_part

    def recording(state, word_ids):
        rows = np.column_stack([*state.values(), word_ids])
        calls.append((len(word_ids), len(np.unique(rows, axis=0))))
        return step_part(state, word_ids)

    monkeypatch.setattr(net, "_step_part", recording)
    scores = cl.score_arrays(net, sentences)
    assert len(calls) == max(len(s) for s in sentences) + 1
    assert all(rows % cl.graph.ROW_BLOCK == 0 and rows - real < cl.graph.ROW_BLOCK
               for rows, real in calls)
    assert sum(real for _, real in calls) == len(_framed_prefixes(net, sentences))
    # a sentence that is a prefix of another shares its scores up to its end
    assert scores.logp[1, :4].tobytes() == scores.logp[0, :4].tobytes()
    assert _sentence_bits(scores, 4) == _sentence_bits(scores, 0)


def test_wide_levels_split_into_capped_steps_with_equal_scores(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(60)]
    whole = cl.score_arrays(net, sentences)
    rows = []
    step_part = net._step_part

    def recording(state, word_ids):
        rows.append(len(word_ids))
        return step_part(state, word_ids)

    monkeypatch.setattr(cl.network, "MAX_STEP_ROWS", 2 * cl.graph.ROW_BLOCK)
    monkeypatch.setattr(net, "_step_part", recording)
    split = cl.score_arrays(net, sentences)
    assert max(rows) == 2 * cl.graph.ROW_BLOCK and len(rows) > 7
    assert _bits(split) == _bits(whole)


def _split_steps(monkeypatch, cpus, part_rows=cl.graph.ROW_BLOCK):
    """Split every step of two blocks or more into up to `cpus` parts."""
    monkeypatch.setattr(cl.network, "PART_ROWS", part_rows)
    monkeypatch.setattr(cl.network, "cpu_count", lambda: cpus)


def test_every_split_of_a_step_gives_the_bits_of_one_part(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    state = {key: rng.uniform(-1, 1, (40, value.shape[1]))
             for key, value in net.initial_state(1).items()}
    # rows 1-8 run whole and 9-16 in two parts; 3 and 4 parts do not divide most sizes
    for n in range(1, 73):
        rows, ids = rng.integers(0, 40, n), rng.integers(0, len(net.vocab), n)
        bits = set()
        for cpus in (1, 3, 4):
            _split_steps(monkeypatch, cpus)
            probs, new = net.step(state, rows, ids)
            bits.add((probs.tobytes(), *(new[key].tobytes() for key in sorted(new))))
        assert len(bits) == 1, n


def test_a_split_step_in_single_precision_keeps_the_type_and_bits_of_one_part(
        rng, monkeypatch):
    # the parts write into arrays allocated before they run
    net = support.random_class_network(rng, vocab_size=15, num_classes=5, precision="single")
    state = {key: rng.uniform(-1, 1, (40, value.shape[1])).astype(np.float32)
             for key, value in net.initial_state(1).items()}
    rows, ids = rng.integers(0, 40, 45), rng.integers(0, len(net.vocab), 45)
    runs = []
    for cpus in (1, 3):
        _split_steps(monkeypatch, cpus)
        probs, new = net.step(state, rows, ids)
        runs.append([(a.dtype, a.shape, a.tobytes()) for a in (probs, *new.values())])
    assert runs[0] == runs[1]
    assert {dtype for dtype, _, _ in runs[0]} == {np.dtype(np.float32)}
    assert runs[0][0][1] == (45, net.classes.num_classes)


def test_each_part_of_a_split_step_runs_its_own_distinct_words(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    state = {key: rng.uniform(-1, 1, (40, value.shape[1]))
             for key, value in net.initial_state(1).items()}
    rows = rng.integers(0, 40, 48)
    # three parts of 16 rows: 2, 9 and 16 distinct words, padded to 8, 16 and 16
    ids = np.concatenate([rng.integers(3, 5, 16), rng.permutation(np.arange(3, 12).repeat(2))[:16],
                          np.arange(2, 18)])
    assert [len(np.unique(part)) for part in ids.reshape(3, 16)] == [2, 9, 16]
    calls = support.matmul_rows(monkeypatch)
    whole = net.step(state, rows, ids)
    # the LSTM's input products: the 16 distinct words 2..17 in one step
    assert [n for n, stacked in calls if stacked] == [16]
    calls.clear()
    _split_steps(monkeypatch, cpus=3)
    split = net.step(state, rows, ids)
    assert sorted(n for n, stacked in calls if stacked) == [8, 16, 16]
    assert whole[0].tobytes() == split[0].tobytes()
    for key in whole[1]:
        assert whole[1][key].tobytes() == split[1][key].tobytes()


def test_parts_of_a_split_level_share_one_word_at_most(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(120)]
    whole = cl.score_arrays(net, sentences)
    levels = []  # per level, each part's distinct words
    step, step_part = cl.Network.step, cl.Network._step_part

    def recording_level(self, *args):
        levels.append([])
        return step(self, *args)

    def recording_part(self, state, word_ids):
        levels[-1].append(set(word_ids.tolist()))
        return step_part(self, state, word_ids)

    _split_steps(monkeypatch, cpus=2)
    monkeypatch.setattr(cl.Network, "step", recording_level)
    monkeypatch.setattr(cl.Network, "_step_part", recording_part)
    split = cl.score_arrays(net, sentences)
    two = [parts for parts in levels if len(parts) == 2]
    # the widest levels hold every word, in parts of several words each
    assert len(two) >= 3 and all(len(a) > 1 and len(b) > 1 for a, b in two)
    assert all(len(a & b) <= 1 for a, b in two)
    assert _bits(split) == _bits(whole)


def test_a_level_split_across_threads_is_one_network_step_on_the_calling_thread(rng,
                                                                               monkeypatch):
    # what perfbench's `network.Network.step` probe reads: one call per trie
    # level, made on the calling thread, whose third positional argument
    # (after the network and the state) has one entry per row of the level
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=3)]
                 for _ in range(400)]
    prefixes = _framed_prefixes(net, sentences)
    widths = [sum(len(prefix) == t for prefix in prefixes) for t in range(1, 5)]
    assert max(widths) > 2 * cl.network.PART_ROWS
    steps, parts = [], []
    step, step_part = cl.Network.step, cl.Network._step_part

    def recording_step(*args):
        steps.append((threading.get_ident(), len(args[2])))
        return step(*args)

    def recording_part(*args):
        parts.append(threading.get_ident())
        return step_part(*args)

    monkeypatch.setattr(cl.network, "cpu_count", lambda: 2)
    monkeypatch.setattr(cl.Network, "step", recording_step)
    monkeypatch.setattr(cl.Network, "_step_part", recording_part)
    cl.score_arrays(net, sentences)
    caller = threading.get_ident()
    assert steps == [(caller, width) for width in widths]
    # a level of 2 * PART_ROWS rows or more runs in two parts on the workers
    split = sum(width >= 2 * cl.network.PART_ROWS for width in widths)
    assert sorted(ident == caller for ident in parts) == [False] * 2 * split + [True] * (
        len(widths) - split)


@pytest.fixture
def fresh_pool(monkeypatch):
    """The next split step makes a new worker pool, shut down after the test."""
    monkeypatch.setattr(cl.network, "_pool", None)
    yield
    if cl.network._pool is not None:
        cl.network._pool.shutdown()


def _worker_affinities(pool, workers):
    """Each worker's affinity mask, read by one task per worker."""
    barrier = threading.Barrier(workers)

    def affinity():
        barrier.wait(timeout=10)  # held until every worker runs one task
        return os.sched_getaffinity(0)

    return [future.result() for future in [pool.submit(affinity) for _ in range(workers)]]


def _split_bits(net, state, rows, ids):
    probs, new = net.step(state, rows, ids)
    return (probs.tobytes(), *(new[key].tobytes() for key in sorted(new)))


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no CPU affinity masks on this platform")


@needs_affinity
def test_workers_pin_to_the_cpus_in_turn_and_the_caller_keeps_its_mask(rng, monkeypatch,
                                                                       fresh_pool):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    state = {key: rng.uniform(-1, 1, (40, value.shape[1]))
             for key, value in net.initial_state(1).items()}
    caller = os.sched_getaffinity(0)
    mask = sorted(caller)
    workers = 2 * len(mask) + 1  # more workers than CPUs
    rows, ids = rng.integers(0, 40, 200), rng.integers(0, len(net.vocab), 200)
    _split_steps(monkeypatch, cpus=1)
    whole = _split_bits(net, state, rows, ids)
    _split_steps(monkeypatch, cpus=workers)
    assert _split_bits(net, state, rows, ids) == whole
    seen = _worker_affinities(cl.network._pool, workers)
    assert all(len(cpus) == 1 and cpus <= caller for cpus in seen)
    assert sorted(cpu for cpus in seen for cpu in cpus) == sorted((mask * workers)[:workers])
    assert os.sched_getaffinity(0) == caller


@needs_affinity
def test_a_pool_made_on_one_cpu_pins_its_workers_to_that_cpu():
    first = min(os.sched_getaffinity(0))
    seen = []

    def on_one_cpu():  # a thread of its own, so that this one keeps its mask
        os.sched_setaffinity(0, {first})
        pool = cl.network._pinned_pool(3)
        try:
            seen.extend(_worker_affinities(pool, 3))
        finally:
            pool.shutdown()

    thread = threading.Thread(target=on_one_cpu)
    thread.start()
    thread.join()
    assert seen == [{first}] * 3


@needs_affinity
@pytest.mark.parametrize("failure", ["pin raises", "no affinity masks"])
def test_a_worker_that_cannot_pin_runs_unpinned_with_the_same_bits(rng, monkeypatch, fresh_pool,
                                                                  failure):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    state = {key: rng.uniform(-1, 1, (40, value.shape[1]))
             for key, value in net.initial_state(1).items()}
    rows, ids = rng.integers(0, 40, 200), rng.integers(0, len(net.vocab), 200)
    _split_steps(monkeypatch, cpus=1)
    whole = _split_bits(net, state, rows, ids)
    caller = os.sched_getaffinity(0)

    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    _split_steps(monkeypatch, cpus=4)
    with pytest.MonkeyPatch.context() as platform:
        if failure == "pin raises":
            platform.setattr(os, "sched_setaffinity", refuse)
        else:
            platform.delattr(os, "sched_setaffinity")
        assert _split_bits(net, state, rows, ids) == whole
        # every worker starts while its pin fails
        assert _worker_affinities(cl.network._pool, 4) == [caller] * 4


@pytest.mark.parametrize("error", [cl.NonFiniteError, cl.ShapeError, cl.GraphError])
@pytest.mark.parametrize("failing", ["first part", "worker"])  # "worker": the later parts
def test_a_failing_part_raises_its_error_after_every_part_has_ended(rng, monkeypatch, error,
                                                                    failing):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    lock = threading.Lock()
    running, ended = [0], [0]
    step_part = cl.Network._step_part
    ids = np.full(200, 4)
    ids[0] = 3  # marks the first part

    def failing_step(self, state, word_ids):
        with lock:
            running[0] += 1
        try:
            if (word_ids[0] == 3) == (failing == "first part"):
                raise error("time step 0: node 'x' (add) produced a non-finite value")
            time.sleep(0.05)  # a part still running when the failing one raises
            return step_part(self, state, word_ids)
        finally:
            with lock:
                running[0] -= 1
                ended[0] += 1

    _split_steps(monkeypatch, cpus=3, part_rows=64)
    monkeypatch.setattr(cl.Network, "_step_part", failing_step)
    with pytest.raises(error) as raised:
        net.step(net.initial_state(1), np.zeros(200, dtype=np.int64), ids)
    assert type(raised.value) is error
    assert str(raised.value) == "time step 0: node 'x' (add) produced a non-finite value"
    assert running[0] == 0 and ended[0] == 3


def test_rows_in_flight_never_exceed_max_step_rows(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(150)]
    whole = cl.score_arrays(net, sentences)
    lock = threading.Lock()
    in_flight, most, sizes = [0], [0], []
    step_part = cl.Network._step_part

    def recording(self, state, word_ids):
        with lock:
            in_flight[0] += len(word_ids)
            most[0] = max(most[0], in_flight[0])
            sizes.append(len(word_ids))
        try:
            time.sleep(0.005)  # parts of one chunk overlap
            return step_part(self, state, word_ids)
        finally:
            with lock:
                in_flight[0] -= len(word_ids)

    max_rows = 6 * cl.graph.ROW_BLOCK
    monkeypatch.setattr(cl.network, "MAX_STEP_ROWS", max_rows)
    _split_steps(monkeypatch, cpus=4)
    monkeypatch.setattr(cl.Network, "_step_part", recording)
    split = cl.score_arrays(net, sentences)
    assert max_rows // 4 < most[0] <= max_rows
    assert all(n % cl.graph.ROW_BLOCK == 0 for n in sizes) and min(sizes) < max_rows // 2
    assert _bits(split) == _bits(whole)


def test_an_evaluation_step_holds_about_what_it_returns():
    # a class-input LSTM network of the `rescore` benchmark's widths, one
    # step of a wide trie level: the LSTM keeps its states only and writes
    # its gates into arrays that die with the step, so the peak reads about
    # 2.3 times the bytes the step returns (3.5 times when it kept every
    # gate) and nothing but those bytes is held after the step
    rng = np.random.default_rng(3)
    net = support.random_class_network(rng, vocab_size=2000, num_classes=400,
                                       sizes=(300, 96, 48))
    words = rng.integers(0, len(net.vocab), 496)
    state = {key: rng.normal(size=value.shape) * 0.1
             for key, value in net.initial_state(len(words)).items()}
    net._step_part(state, words)  # graph built, caches warm
    tracemalloc.start()
    try:
        probs, new = net._step_part(state, words)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = probs.nbytes + sum(value.nbytes for value in new.values())
    assert returned > 2e6
    assert peak <= 2.6 * returned
    assert held <= 1.05 * returned


def test_score_arrays_drops_a_levels_probabilities_before_the_next_step(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(40)]
    step = net.step
    last = []

    def recording(*args):
        assert not last or last[-1]() is None  # the level before's probabilities are gone
        probs, state = step(*args)
        last.append(weakref.ref(probs))
        return probs, state

    monkeypatch.setattr(net, "step", recording)
    cl.score_arrays(net, sentences)
    assert len(last) > 2


def _zero_membership_network(rng):
    """A random class model in which one word of a two-word class has
    membership 0, so that predicting it scores -inf; returns it and the word."""
    net = support.random_class_network(rng, vocab_size=10, num_classes=3)
    class_of = net.classes.class_of
    word = next(w for w in range(3, len(class_of)) if (class_of == class_of[w]).sum() > 1)
    membership = net.classes.membership.copy()
    mates = (class_of == class_of[word]) & (np.arange(len(class_of)) != word)
    membership[mates] += membership[word] / mates.sum()
    membership[word] = 0.0
    classes = cl.ClassMap(class_of, membership, net.classes.num_classes)
    return cl.Network(net.desc, net.vocab, classes, net.params), net.vocab.words[word]


@pytest.mark.parametrize("unk_policy", ["include", "exclude"])
def test_score_arrays_of_any_batch_equal_one_at_a_time_bitwise(rng, unk_policy):
    net, zero = _zero_membership_network(rng)
    words = [*net.vocab.words[3:], "OOV", "qq"]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 8))]
                 for _ in range(30)]
    sentences += [[zero], [words[0], zero, "OOV"], ["OOV"], ["OOV", "qq", words[1]]]
    scores = cl.score_arrays(net, sentences, unk_policy)
    assert (scores.totals == -np.inf).any()
    # sentences as tuples and as generators, in a generator
    given = (tuple(s) if i % 2 else (t for t in s) for i, s in enumerate(sentences))
    assert _bits(cl.score_arrays(net, given, unk_policy)) == _bits(scores)
    unknown = net.vocab.unk_id
    for i, sentence in enumerate(sentences):
        n = len(sentence) + 1
        assert scores.predicted[i] == n
        targets = [net.vocab.ids.get(w, unknown) for w in sentence]
        assert scores.included[i, :n].tolist() == [
            unk_policy == "include" or t != unknown for t in targets] + [True]
        assert not scores.included[i, n:].any()
        assert scores.counted[i] == scores.included[i].sum()
        assert (scores.logp[i, n:] == 0.0).all()
        assert _sentence_bits(cl.score_arrays(net, [sentence], unk_policy), 0) == _sentence_bits(
            scores, i)
    assert cl.corpus_perplexity(net, sentences, unk_policy) == cl.scoring.perplexity(
        scores.totals.tolist(), scores.counted)


def test_empty_sentence_keeps_its_message_wherever_it_stands(rng):
    net = support.random_class_network(rng, vocab_size=5, num_classes=2)
    w = net.vocab.words[3]
    for batch in ([[]], [[w], [], [w]], [[w], (t for t in [])], [[w], ()]):
        with pytest.raises(ValueError) as raised:
            cl.score_arrays(net, batch)
        assert str(raised.value) == "cannot score an empty sentence"


def test_no_sentences_score_as_empty_arrays(rng):
    net = support.random_class_network(rng, vocab_size=5, num_classes=2)
    scores = cl.score_arrays(net, iter([]))
    assert scores.totals.shape == scores.counted.shape == scores.predicted.shape == (0,)
    with pytest.raises(ValueError, match="no counted tokens"):
        cl.corpus_perplexity(net, [])


def test_perplexity_sums_totals_left_to_right():
    # left to right, 1e16 + 1.0 rounds back to 1e16 and the sum is 0.0; a
    # compensated sum (Python's sum() from 3.12 on) gives 1.0
    assert cl.scoring.perplexity([1e16, 1.0, -1e16], [1, 1, 1]) == 1.0
    assert cl.scoring.perplexity(np.array([1e16, 1.0, -1e16]), np.array([1, 1, 1])) == 1.0
    assert cl.scoring.perplexity([-1.5, -2.5], [2, 2]) == np.exp(1.0)
