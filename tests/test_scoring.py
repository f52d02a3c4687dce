"""Sentence scores against enumeration oracles, and perplexity conventions."""

import os
import subprocess
import sys
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
    step_chunk = net._step_chunk

    def recording(state, word_ids):
        rows = np.column_stack([*state.values(), word_ids])
        calls.append((len(word_ids), len(np.unique(rows, axis=0))))
        return step_chunk(state, word_ids)

    monkeypatch.setattr(net, "_step_chunk", recording)
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
    step_chunk = net._step_chunk

    def recording(state, word_ids):
        rows.append(len(word_ids))
        return step_chunk(state, word_ids)

    monkeypatch.setattr(cl.network, "MAX_STEP_ROWS", 2 * cl.graph.ROW_BLOCK)
    monkeypatch.setattr(net, "_step_chunk", recording)
    split = cl.score_arrays(net, sentences)
    assert max(rows) == 2 * cl.graph.ROW_BLOCK and len(rows) > 7
    assert _bits(split) == _bits(whole)


def _split_runs(monkeypatch, cpus, run_sentences=1):
    """Split every call of at least two runs of `run_sentences` sentences
    into up to `cpus` runs."""
    monkeypatch.setattr(cl.network, "RUN_SENTENCES", run_sentences)
    monkeypatch.setattr(cl.network, "cpu_count", lambda: cpus)


def _run_sizes(monkeypatch):
    """The sentences of each run of the next score_arrays calls, in run order."""
    sizes = []
    walk = cl.scoring._walk

    def recording(network, ids, *args):
        sizes.append(len(ids))
        return walk(network, ids, *args)

    monkeypatch.setattr(cl.scoring, "_walk", recording)
    return sizes


def test_every_split_of_a_step_gives_the_bits_of_one_part(rng):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    state = {key: rng.uniform(-1, 1, (40, value.shape[1]))
             for key, value in net.initial_state(1).items()}
    # chunks of one, two and three blocks; 3 blocks divide few row counts
    for n in range(1, 73):
        rows, ids = rng.integers(0, 40, n), rng.integers(0, len(net.vocab), n)
        bits = set()
        for max_rows in (None, cl.graph.ROW_BLOCK, 2 * cl.graph.ROW_BLOCK, 3 * cl.graph.ROW_BLOCK):
            probs, new = net.step(state, rows, ids, max_rows=max_rows)
            bits.add((probs.tobytes(), *(new[key].tobytes() for key in sorted(new))))
        assert len(bits) == 1, n


def test_a_split_step_in_single_precision_keeps_the_type_and_bits_of_one_part(rng):
    # the chunks write into arrays allocated before they run
    net = support.random_class_network(rng, vocab_size=15, num_classes=5, precision="single")
    state = {key: rng.uniform(-1, 1, (40, value.shape[1])).astype(np.float32)
             for key, value in net.initial_state(1).items()}
    rows, ids = rng.integers(0, 40, 45), rng.integers(0, len(net.vocab), 45)
    runs = []
    for max_rows in (None, 2 * cl.graph.ROW_BLOCK):
        probs, new = net.step(state, rows, ids, max_rows=max_rows)
        runs.append([(a.dtype, a.shape, a.tobytes()) for a in (probs, *new.values())])
    assert runs[0] == runs[1]
    assert {dtype for dtype, _, _ in runs[0]} == {np.dtype(np.float32)}
    assert runs[0][0][1] == (45, net.classes.num_classes)


def test_picks_are_the_entries_of_a_full_step_bitwise(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    k = net.classes.num_classes
    block = cl.graph.ROW_BLOCK
    state = {key: rng.uniform(-1, 1, (40, value.shape[1]))
             for key, value in net.initial_state(1).items()}
    for n in range(1, 73):
        rows, ids = rng.integers(0, 40, n), rng.integers(0, len(net.vocab), n)
        monkeypatch.undo()
        probs, new = net.step(state, rows, ids)  # the full step, one chunk
        m = int(rng.integers(1, 3 * n + 1))
        cases = [  # unsorted, rows and classes repeated; every entry; none
            (rng.integers(0, n, m), rng.integers(0, k, m)),
            (np.arange(n).repeat(k)[::-1], np.tile(np.arange(k), n)),
            (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
        ]
        # chunks of one, two and four blocks, the last as the default cap
        for max_rows, cap in ((block, None), (2 * block, None), (None, 4 * block)):
            if cap:
                monkeypatch.setattr(cl.network, "MAX_STEP_ROWS", cap)
            for picks in cases:
                picked, picked_new = net.step(state, rows, ids, picks, max_rows=max_rows)
                assert picked.dtype == probs.dtype and picked.shape == picks[0].shape
                assert picked.tobytes() == probs[picks].tobytes(), (n, max_rows, cap)
                for key in new:
                    assert picked_new[key].tobytes() == new[key].tobytes()
    with pytest.raises(IndexError, match=r"range\(3\)"):
        net.step(state, rows[:3], ids[:3], (np.array([0, 3]), np.array([0, 0])))


def test_each_part_of_a_split_step_runs_its_own_distinct_words(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    state = {key: rng.uniform(-1, 1, (40, value.shape[1]))
             for key, value in net.initial_state(1).items()}
    rows = rng.integers(0, 40, 48)
    # three chunks of 16 rows: 2, 9 and 16 distinct words, padded to 8, 16 and 16
    ids = np.concatenate([rng.integers(3, 5, 16), rng.permutation(np.arange(3, 12).repeat(2))[:16],
                          np.arange(2, 18)])
    assert [len(np.unique(part)) for part in ids.reshape(3, 16)] == [2, 9, 16]
    calls = support.matmul_rows(monkeypatch)
    whole = net.step(state, rows, ids)
    # the LSTM's input products: the 16 distinct words 2..17 in one step
    assert [n for n, stacked in calls if stacked] == [16]
    calls.clear()
    split = net.step(state, rows, ids, max_rows=16)
    assert [n for n, stacked in calls if stacked] == [8, 16, 16]
    assert whole[0].tobytes() == split[0].tobytes()
    for key in whole[1]:
        assert whole[1][key].tobytes() == split[1][key].tobytes()


def test_parts_of_a_split_level_share_one_word_at_most(rng, monkeypatch):
    # a level's rows in word-major order: its chunks repeat no word's products
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(120)]
    whole = cl.score_arrays(net, sentences)
    levels = []  # per level, each chunk's distinct words
    step, step_chunk = cl.Network.step, cl.Network._step_chunk

    def recording_level(self, *args, **kwargs):
        levels.append([])
        return step(self, *args, **kwargs)

    def recording_chunk(self, state, word_ids):
        levels[-1].append(set(word_ids.tolist()))
        return step_chunk(self, state, word_ids)

    monkeypatch.setattr(cl.network, "MAX_STEP_ROWS", 32)
    monkeypatch.setattr(cl.Network, "step", recording_level)
    monkeypatch.setattr(cl.Network, "_step_chunk", recording_chunk)
    split = cl.score_arrays(net, sentences)
    split_levels = [chunks for chunks in levels if len(chunks) > 1]
    pairs = [(a, b) for chunks in split_levels for a, b in zip(chunks, chunks[1:])]
    # the widest levels hold every word, in chunks of several words each
    assert len(split_levels) >= 3 and sum(len(a) > 1 and len(b) > 1 for a, b in pairs) >= 3
    assert all(len(a & b) <= 1 for a, b in pairs)
    assert _bits(split) == _bits(whole)


def _nbest_like(rng, net, utterances=30, hypotheses=10):
    """Sentences in utterances of `hypotheses` variants of one sentence,
    which share prefixes of several lengths, as the hypotheses of an n-best
    list do; returns the sentences and the utterance of each."""
    words = net.vocab.words[3:]
    sentences, utterance = [], []
    for u in range(utterances):
        base = [words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(3, 9))]
        for _ in range(hypotheses):
            hyp = list(base)
            hyp[int(rng.integers(1, len(hyp)))] = words[int(rng.integers(len(words)))]
            sentences.append(hyp + ["OOV"] * int(rng.integers(0, 2)))
            utterance.append(u)
    return sentences, utterance


def test_scores_perplexities_and_rankings_are_the_bits_of_one_cpu(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    sentences, utterance = _nbest_like(rng, net)
    nbest = cl.NBest.from_columns([f"u{u}" for u in utterance],
                                  rng.normal(-30, 5, len(sentences)),
                                  rng.normal(-20, 5, len(sentences)), sentences)
    params = cl.InterpolationParams(lam=0.5, s_bo=1.0, s_nn=1.5)
    runs = []
    for cpus in (1, 2, 3):  # 300 sentences: 1, 2 and 3 runs at the real threshold
        monkeypatch.undo()
        _split_runs(monkeypatch, cpus, run_sentences=80)
        sizes = _run_sizes(monkeypatch)
        outputs = []
        for policy in cl.scoring.UNK_POLICIES:
            scores = cl.score_arrays(net, sentences, policy)
            order, nn, lm, totals = cl.rescoring.rank_hypotheses(nbest, scores.totals, params)
            outputs += [_bits(scores), cl.corpus_perplexity(net, sentences, policy),
                        *(a.tobytes() for a in (order, nn, lm, totals))]
        runs.append(outputs)
        # two calls per policy, each in `cpus` runs
        assert len(sizes) == 4 * cpus and sum(sizes) == 4 * len(sentences)
    assert runs[0] == runs[1] == runs[2]


def test_a_run_boundary_may_fall_inside_an_utterance_and_inside_a_shared_prefix(rng,
                                                                               monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    prefix = [words[0], words[1], words[2]]
    # 160 sentences of equal length: two runs of 80, cut inside the
    # utterance of sentences 76-83, which all share `prefix`
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=5)]
                 for _ in range(160)]
    for i in range(76, 84):
        sentences[i][:3] = prefix
    whole = cl.score_arrays(net, sentences)
    _split_runs(monkeypatch, cpus=2, run_sentences=80)
    sizes = _run_sizes(monkeypatch)
    split = cl.score_arrays(net, sentences)
    assert sizes == [80, 80]
    assert _bits(split) == _bits(whole)
    # a prefix shared across the cut runs once in each run, with the same bits
    assert len({split.logp[i, :3].tobytes() for i in range(76, 84)}) == 1


def _split_bits(net, sentences):
    return _bits(cl.score_arrays(net, sentences))


def _short_sentences(rng, net, count=40):
    words = net.vocab.words[3:]
    return [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
            for _ in range(count)]


def test_more_runs_than_cpus_give_the_bits_of_one_and_the_caller_keeps_its_mask(rng,
                                                                                 monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    sentences = _short_sentences(rng, net)
    mask = getattr(os, "sched_getaffinity", lambda pid: None)
    caller = mask(0)
    runs = 2 * cl.network.cpu_count() + 2  # more runs than CPUs; run 0 runs on this thread
    _split_runs(monkeypatch, cpus=1)
    whole = _split_bits(net, sentences)
    _split_runs(monkeypatch, cpus=runs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the runs' threads switch at every chance
    try:
        assert _split_bits(net, sentences) == whole
    finally:
        sys.setswitchinterval(interval)
    assert cl.network.threads_used() >= runs
    assert mask(0) == caller


def test_no_thread_a_split_call_starts_outlives_it(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    sentences = _short_sentences(rng, net)
    walkers = []
    walk = cl.scoring._walk

    def recording(*args):
        walkers.append(threading.current_thread())
        return walk(*args)

    _split_runs(monkeypatch, cpus=3)
    monkeypatch.setattr(cl.scoring, "_walk", recording)
    before = set(threading.enumerate())
    cl.score_arrays(net, sentences)
    started = set(walkers) - {threading.current_thread()}
    # run 0 ran on this thread; a worker that ends its run early may take the next
    assert len(walkers) == 3 and 1 <= len(started) <= 2
    assert not any(thread.is_alive() for thread in started)
    assert set(threading.enumerate()) == before


# Run in a fresh interpreter: make a split call, fork, and repeat the call in
# the child, which must end within 30 s with the parent's totals.
_FORK_SCRIPT = """
import os, signal, sys, time
import numpy as np
import classlm as cl
import support

net = support.random_class_network(np.random.default_rng(5), vocab_size=15, num_classes=5)
words = net.vocab.words[3:]
sentences = [[words[i % len(words)], words[(3 * i) % len(words)]] for i in range(60)]
cl.network.RUN_SENTENCES = 1
cl.network.cpu_count = lambda: 3
totals = cl.score_arrays(net, sentences).totals.tobytes()
assert cl.network.threads_used() == 3
pid = os.fork()
if pid == 0:
    os._exit(0 if cl.score_arrays(net, sentences).totals.tobytes() == totals else 1)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the forked child was still in its split call after 30 s")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_a_call_as_its_parent_did():
    here = os.path.dirname(__file__)
    src = os.path.join(os.path.dirname(here), "src")
    path = os.pathsep.join(p for p in (src, here, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _FORK_SCRIPT], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("error", [cl.NonFiniteError, cl.ShapeError, cl.GraphError])
@pytest.mark.parametrize("failing", ["first part", "worker"])  # run 0, or runs 1 and 2
def test_a_failing_part_raises_its_error_after_every_part_has_ended(rng, monkeypatch, error,
                                                                    failing):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words
    # three runs of 80 sentences; run k's sentences start with word id 3 + k
    sentences = [[words[3 + i // 80], words[6]] for i in range(240)]
    lock = threading.Lock()
    running, ended = [0], [0]
    step_chunk = cl.Network._step_chunk

    def failing_step(self, state, word_ids):
        with lock:
            running[0] += 1
        try:
            run = next((k for k in range(3) if 3 + k in word_ids), None)
            if run is not None and (run == 0) == (failing == "first part"):
                if run == 1:
                    time.sleep(0.05)  # fails after run 2, and its error is raised
                raise error(f"time step 0: node 'x' (add) produced a non-finite value in run {run}")
            time.sleep(0.05)  # a run still running when a failing one raises
            return step_chunk(self, state, word_ids)
        finally:
            with lock:
                running[0] -= 1
                ended[0] += 1

    _split_runs(monkeypatch, cpus=3, run_sentences=80)
    monkeypatch.setattr(cl.Network, "_step_chunk", failing_step)
    with pytest.raises(error) as raised:
        cl.score_arrays(net, sentences)
    assert type(raised.value) is error
    first = 0 if failing == "first part" else 1
    assert str(raised.value) == (
        f"time step 0: node 'x' (add) produced a non-finite value in run {first}")
    # three levels per run; a failing run ends at its second
    assert running[0] == 0 and ended[0] == (8 if failing == "first part" else 7)


def test_rows_in_flight_never_exceed_max_step_rows(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6))]
                 for _ in range(150)]
    whole = cl.score_arrays(net, sentences)
    lock = threading.Lock()
    in_flight, most, sizes = [0], [0], []
    step_chunk = cl.Network._step_chunk

    def recording(self, state, word_ids):
        with lock:
            in_flight[0] += len(word_ids)
            most[0] = max(most[0], in_flight[0])
            sizes.append(len(word_ids))
        try:
            time.sleep(0.005)  # the runs' steps overlap
            return step_chunk(self, state, word_ids)
        finally:
            with lock:
                in_flight[0] -= len(word_ids)

    max_rows = 6 * cl.graph.ROW_BLOCK
    monkeypatch.setattr(cl.network, "MAX_STEP_ROWS", max_rows)
    _split_runs(monkeypatch, cpus=4, run_sentences=8)
    monkeypatch.setattr(cl.Network, "_step_chunk", recording)
    split = cl.score_arrays(net, sentences)
    # four runs, each at most one block of the six at a time
    share = max_rows // 4 // cl.graph.ROW_BLOCK * cl.graph.ROW_BLOCK
    assert share < most[0] <= max_rows
    assert all(n % cl.graph.ROW_BLOCK == 0 and n <= share for n in sizes)
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
    net._step_chunk(state, words)  # graph built, caches warm
    tracemalloc.start()
    try:
        probs, new = net._step_chunk(state, words)
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

    def recording(*args, **kwargs):
        assert not last or last[-1]() is None  # the level before's probabilities are gone
        probs, state = step(*args, **kwargs)
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


def test_groups_close_before_the_sentence_that_would_pass_the_budget(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    words = net.vocab.words[3:]
    sentences = [[words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 9))]
                 for _ in range(200)]
    sentences.insert(120, [words[0]] * 40)  # longer than one group allows
    whole = cl.score_arrays(net, sentences)
    monkeypatch.setattr(cl.scoring, "GROUP_ELEMENTS", 30)
    groups = list(cl.scoring.score_groups(net, iter(sentences)))
    # in input order, each group as large as the budget allows
    assert [s for group, _, _ in groups for s in group] == sentences
    for (group, _, _), (after, _, _) in zip(groups, groups[1:]):
        assert len(group) * (max(map(len, group)) + 2) <= 30 or len(group) == 1
        assert (len(group) + 1) * (max(map(len, group + after[:1])) + 2) > 30
    assert [len(group) for group, _, _ in groups if len(group[0]) == 40] == [1]
    assert np.concatenate([totals for _, totals, _ in groups]).tobytes() == whole.totals.tobytes()
    assert np.concatenate([counted for _, _, counted in groups]).tolist() == whole.counted.tolist()
    assert cl.corpus_perplexity(net, sentences) == cl.scoring.perplexity(whole.totals,
                                                                       whole.counted)


def _scoring_peak(net, sentences):
    """The tracemalloc peak of the perplexity of `sentences`, in bytes."""
    tracemalloc.start()
    try:
        cl.corpus_perplexity(net, sentences)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _random_sentences(rng, words, count, shortest, longest):
    return [[words[int(i)] for i in rng.integers(0, len(words), rng.integers(shortest, longest + 1))]
            for _ in range(count)]


@pytest.mark.parametrize("shortest, longest", [(3, 20), (1, 1)])
def test_grouped_scoring_peaks_about_as_high_for_four_times_the_sentences(rng, shortest,
                                                                         longest):
    # N sentences fill one group; 4N are scored in four groups one after
    # another, and only a running total is kept across groups (scored as
    # one matrix, 4N sentences peaked at 3.3 and 4.0 times N)
    net = support.random_class_network(rng, vocab_size=50, num_classes=8)
    words = net.vocab.words[3:]
    n = cl.scoring.GROUP_ELEMENTS // (longest + 2)
    sentences = _random_sentences(rng, words, 4 * n, shortest, longest)
    cl.corpus_perplexity(net, sentences[:10])  # graph built, caches warm
    one = _scoring_peak(net, sentences[:n])
    assert _scoring_peak(net, sentences) <= 1.25 * one


def test_one_long_sentence_does_not_pad_the_others(rng):
    # 5,000 twelve-word sentences and one of 2,000 words: scored as one
    # (sentence, position) matrix, the long one made every row 2,002 wide
    # (173 MB against 4.2 MB); its group holds only a few sentences
    net = support.random_class_network(rng, vocab_size=50, num_classes=8)
    words = net.vocab.words[3:]
    sentences = _random_sentences(rng, words, 5000, 12, 12)
    cl.corpus_perplexity(net, sentences[:10])  # graph built, caches warm
    without = _scoring_peak(net, sentences)
    outlier = _random_sentences(rng, words, 1, 2000, 2000)
    assert _scoring_peak(net, sentences[:2500] + outlier + sentences[2500:]) <= 2 * without
