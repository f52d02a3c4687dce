"""Sentence scores against enumeration oracles, and perplexity conventions."""

import os
import threading
import time

import numpy as np
import pytest

import classlm as cl

import support


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
    res = cl.score_sentence(net, ["a"])
    assert res.total == np.log(0.5) + np.log(0.25)
    assert res.counted == 2


def test_all_unknown_sentence_counts_only_the_end_token(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    res = cl.score_sentence(net, ["qq", "zz", "xx"], unk_policy="exclude")
    assert res.counted == 1
    assert res.per_token[:3] == [None, None, None]
    assert res.per_token[3] is not None
    included = cl.score_sentence(net, ["qq", "zz", "xx"], unk_policy="include")
    assert included.counted == 4


def test_history_advances_through_excluded_unknowns(rng):
    # the excluded position changes nothing about which tokens are scored,
    # but the unknown token still conditions later predictions
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    known = [net.vocab.words[4], net.vocab.words[5]]
    with_unk = cl.score_sentence(net, [known[0], "OOV", known[1]], unk_policy="exclude")
    without = cl.score_sentence(net, [known[0], known[1]], unk_policy="exclude")
    assert with_unk.per_token[0] == without.per_token[0]
    assert with_unk.per_token[2] != without.per_token[1]


def test_scores_match_enumeration_oracle(rng):
    # exp(total) equals the product over positions of the target's entry in
    # the brute-force full-vocabulary distribution
    net = support.random_class_network(rng, vocab_size=40, num_classes=7)
    vocab = net.vocab
    sentence = [vocab.words[int(rng.integers(3, len(vocab)))] for _ in range(6)]
    res = cl.score_sentence(net, sentence)

    ids = vocab.frame(sentence)
    state = net.initial_state(1)
    product = 1.0
    for t in range(len(ids) - 1):
        probs, state = net.step(state, np.array([ids[t]]))
        dist = support.word_distribution(net, probs[0])
        assert abs(dist.sum() - 1.0) < 1e-10
        product *= dist[ids[t + 1]]
    assert np.exp(res.total) == pytest.approx(product, rel=1e-9)


def test_policies_agree_on_unknown_free_corpus(rng):
    net = support.random_class_network(rng, vocab_size=10, num_classes=4)
    sentences = [
        [net.vocab.words[int(rng.integers(3, len(net.vocab)))] for _ in range(5)]
        for _ in range(4)
    ]
    for sent in sentences:
        inc = cl.score_sentence(net, sent, "include")
        exc = cl.score_sentence(net, sent, "exclude")
        assert inc.total == exc.total and inc.counted == exc.counted
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
    res = cl.score_sentence(net, sent)
    ppl = cl.corpus_perplexity(net, [sent])
    assert ppl == pytest.approx(np.exp(-res.total / res.counted), rel=1e-12)


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
        cl.score_sentence(net, [])


def test_invalid_policy_rejected(rng):
    net = support.random_class_network(rng, vocab_size=5, num_classes=2)
    with pytest.raises(ValueError, match="unk_policy"):
        cl.score_sentence(net, ["a"], unk_policy="penalize")


def test_batched_scoring_equals_one_at_a_time(rng):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    sentences = [
        [net.vocab.words[int(rng.integers(3, len(net.vocab)))] for _ in range(int(rng.integers(1, 7)))]
        for _ in range(9)
    ]
    batched = cl.score_sentences(net, sentences)
    for sent, res in zip(sentences, batched):
        single = cl.score_sentence(net, sent)
        assert single.total == res.total
        assert single.per_token == res.per_token


@pytest.mark.parametrize("seed", range(20))
def test_batched_scoring_equals_one_at_a_time_any_seed(seed):
    # the body above holds for every batch, not only its fixture seed
    test_batched_scoring_equals_one_at_a_time(np.random.default_rng(seed))


def _framed_prefixes(net, sentences):
    return {tuple(ids[:t]) for s in sentences
            for ids in [net.vocab.frame(s)] for t in range(1, len(ids))}


def test_each_prefix_runs_once(rng, monkeypatch):
    # an n-best-like list: variants of one sentence that differ late
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    w = net.vocab.words
    base = [w[int(i)] for i in rng.integers(3, len(w), size=9)]
    sentences = [base, base[:4], base[:6] + [w[3]], base[:6] + [w[4], w[5]], base,
                 base[:8] + [w[6]] + base[8:], [w[7]] + base[1:]]
    calls = []
    step = net.step

    def recording(state, word_ids):
        rows = np.column_stack([*state.values(), word_ids])
        calls.append((len(word_ids), len(np.unique(rows, axis=0))))
        return step(state, word_ids)

    monkeypatch.setattr(net, "step", recording)
    results = cl.score_sentences(net, sentences)
    assert len(calls) == max(len(s) for s in sentences) + 1
    assert all(rows % cl.graph.ROW_BLOCK == 0 and rows - real < cl.graph.ROW_BLOCK
               for rows, real in calls)
    assert sum(real for _, real in calls) == len(_framed_prefixes(net, sentences))
    # a sentence that is a prefix of another shares its scores up to its end
    assert results[1].per_token[:4] == results[0].per_token[:4]
    assert results[4].per_token == results[0].per_token


def test_wide_levels_split_into_capped_steps_with_equal_scores(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(60)]
    whole = cl.score_sentences(net, sentences)
    rows = []
    step = net.step

    def recording(state, word_ids):
        rows.append(len(word_ids))
        return step(state, word_ids)

    monkeypatch.setattr(cl.scoring, "MAX_STEP_ROWS", 2 * cl.graph.ROW_BLOCK)
    monkeypatch.setattr(net, "step", recording)
    split = cl.score_sentences(net, sentences)
    assert max(rows) == 2 * cl.graph.ROW_BLOCK and len(rows) > 7
    for a, b in zip(whole, split):
        assert (a.total, a.per_token, a.counted) == (b.total, b.per_token, b.counted)


def _split_steps(monkeypatch, cpus, part_rows=cl.graph.ROW_BLOCK):
    """Split every step of two blocks or more into up to `cpus` parts."""
    monkeypatch.setattr(cl.scoring, "PART_ROWS", part_rows)
    monkeypatch.setattr(cl.scoring, "cpu_count", lambda: cpus)


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
            probs, new = cl.scoring.step_rows(net, state, rows, ids)
            bits.add((probs.tobytes(), *(new[key].tobytes() for key in sorted(new))))
        assert len(bits) == 1, n


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
    whole = cl.scoring.step_rows(net, state, rows, ids)
    # the LSTM's input products: the 16 distinct words 2..17 in one step
    assert [n for n, stacked in calls if stacked] == [16]
    calls.clear()
    _split_steps(monkeypatch, cpus=3)
    split = cl.scoring.step_rows(net, state, rows, ids)
    assert sorted(n for n, stacked in calls if stacked) == [8, 16, 16]
    assert whole[0].tobytes() == split[0].tobytes()
    for key in whole[1]:
        assert whole[1][key].tobytes() == split[1][key].tobytes()


def test_parts_of_a_split_level_share_one_word_at_most(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(120)]
    whole = cl.score_sentences(net, sentences)
    levels = []  # per level, each part's distinct words
    step_rows, step = cl.scoring.step_rows, cl.scoring._step

    def recording_level(*args):
        levels.append([])
        return step_rows(*args)

    def recording_part(network, state, rows, word_ids):
        levels[-1].append(set(word_ids.tolist()))
        return step(network, state, rows, word_ids)

    _split_steps(monkeypatch, cpus=2)
    monkeypatch.setattr(cl.scoring, "step_rows", recording_level)
    monkeypatch.setattr(cl.scoring, "_step", recording_part)
    split = cl.score_sentences(net, sentences)
    two = [parts for parts in levels if len(parts) == 2]
    # the widest levels hold every word, in parts of several words each
    assert len(two) >= 3 and all(len(a) > 1 and len(b) > 1 for a, b in two)
    assert all(len(a & b) <= 1 for a, b in two)
    for a, b in zip(whole, split):
        assert (a.total, a.per_token, a.counted) == (b.total, b.per_token, b.counted)


@pytest.fixture
def fresh_pool(monkeypatch):
    """The next split step makes a new worker pool, shut down after the test."""
    monkeypatch.setattr(cl.scoring, "_pool", None)
    yield
    if cl.scoring._pool is not None:
        cl.scoring._pool.shutdown()


def _worker_affinities(pool, workers):
    """Each worker's affinity mask, read by one task per worker."""
    barrier = threading.Barrier(workers)

    def affinity():
        barrier.wait(timeout=10)  # held until every worker runs one task
        return os.sched_getaffinity(0)

    return [future.result() for future in [pool.submit(affinity) for _ in range(workers)]]


def _split_bits(net, state, rows, ids):
    probs, new = cl.scoring.step_rows(net, state, rows, ids)
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
    seen = _worker_affinities(cl.scoring._pool, workers)
    assert all(len(cpus) == 1 and cpus <= caller for cpus in seen)
    assert sorted(cpu for cpus in seen for cpu in cpus) == sorted((mask * workers)[:workers])
    assert os.sched_getaffinity(0) == caller


@needs_affinity
def test_a_pool_made_on_one_cpu_pins_its_workers_to_that_cpu():
    first = min(os.sched_getaffinity(0))
    seen = []

    def on_one_cpu():  # a thread of its own, so that this one keeps its mask
        os.sched_setaffinity(0, {first})
        pool = cl.scoring._pinned_pool(3)
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
        assert _worker_affinities(cl.scoring._pool, 4) == [caller] * 4


@pytest.mark.parametrize("error", [cl.NonFiniteError, cl.ShapeError, cl.GraphError])
@pytest.mark.parametrize("failing", ["first part", "worker"])  # "worker": the later parts
def test_a_failing_part_raises_its_error_after_every_part_has_ended(rng, monkeypatch, error,
                                                                    failing):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    lock = threading.Lock()
    running, ended = [0], [0]
    step = cl.Network.step
    ids = np.full(200, 4)
    ids[0] = 3  # marks the first part

    def failing_step(self, state, word_ids):
        with lock:
            running[0] += 1
        try:
            if (word_ids[0] == 3) == (failing == "first part"):
                raise error("time step 0: node 'x' (add) produced a non-finite value")
            time.sleep(0.05)  # a part still running when the failing one raises
            return step(self, state, word_ids)
        finally:
            with lock:
                running[0] -= 1
                ended[0] += 1

    _split_steps(monkeypatch, cpus=3, part_rows=64)
    monkeypatch.setattr(cl.Network, "step", failing_step)
    with pytest.raises(error) as raised:
        cl.scoring.step_rows(net, net.initial_state(1), np.zeros(200, dtype=np.int64), ids)
    assert type(raised.value) is error
    assert str(raised.value) == "time step 0: node 'x' (add) produced a non-finite value"
    assert running[0] == 0 and ended[0] == 3


def test_rows_in_flight_never_exceed_max_step_rows(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(150)]
    whole = cl.score_sentences(net, sentences)
    lock = threading.Lock()
    in_flight, most, sizes = [0], [0], []
    step = cl.Network.step

    def recording(self, state, word_ids):
        with lock:
            in_flight[0] += len(word_ids)
            most[0] = max(most[0], in_flight[0])
            sizes.append(len(word_ids))
        try:
            time.sleep(0.005)  # parts of one chunk overlap
            return step(self, state, word_ids)
        finally:
            with lock:
                in_flight[0] -= len(word_ids)

    max_rows = 6 * cl.graph.ROW_BLOCK
    monkeypatch.setattr(cl.scoring, "MAX_STEP_ROWS", max_rows)
    _split_steps(monkeypatch, cpus=4)
    monkeypatch.setattr(cl.Network, "step", recording)
    split = cl.score_sentences(net, sentences)
    assert max_rows // 4 < most[0] <= max_rows
    assert all(n % cl.graph.ROW_BLOCK == 0 for n in sizes) and min(sizes) < max_rows // 2
    for a, b in zip(whole, split):
        assert (a.total, a.per_token, a.counted) == (b.total, b.per_token, b.counted)
