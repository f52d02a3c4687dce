"""Sentence log-probabilities and corpus perplexity.

Every sentence is framed as ``<s> w1 ... wn </s>``: the start token is
input-only and the end token is a predicted position.  A predicted token
contributes

    log P(w | history) = log P(c(w) | history) + log P(w | c(w))

Unknown-word handling follows `unk_policy`: with ``"include"`` the unknown
token is scored like any word; with ``"exclude"`` positions whose target is
``<unk>`` contribute neither to the total nor to the token count, although
the history still advances through them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .graph import ROW_BLOCK

__all__ = ["ScoreResult", "corpus_perplexity", "perplexity", "score_sentence", "score_sentences"]

UNK_POLICIES = ("include", "exclude")

# Rows per network step, a multiple of ROW_BLOCK: a trie level or a sampling
# position wider than this is split, which bounds a step's memory on large
# inputs and, since rows are computed in independent blocks, changes no
# result.
MAX_STEP_ROWS = 128 * ROW_BLOCK

# Rows per part of a step split across threads, at least, so a step splits
# from 128 rows on.  Two parts against one step, at the sizes of the
# `rescore` and of the `train` benchmark model, on a 2-core host with one
# BLAS thread (medians of 30 and of 80 steps): 0.63-0.90x the speed at 64
# rows, 0.85-1.04x at 96, 1.08-1.28x at 128, 1.07-1.51x at 256 and
# 1.60-1.95x at 1,024.
PART_ROWS = 64

_pool = None  # worker threads for the parts after the first, made on first use
_pool_lock = threading.Lock()
_most_threads = 1  # read by threads_used()


@dataclass
class ScoreResult:
    """Log-probability of one sentence under the model.

    `per_token` has one entry per predicted position (w1 ... wn </s>);
    excluded positions hold None.  `total` is the sum of the included
    entries and `counted` their number.
    """

    total: float = 0.0
    per_token: list = field(default_factory=list)
    counted: int = 0


def _check_policy(unk_policy):
    if unk_policy not in UNK_POLICIES:
        raise ValueError(f"unk_policy must be one of {UNK_POLICIES}, got {unk_policy!r}")


def cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def threads_used():
    """The most threads one :func:`step_rows` step has run on in this process."""
    return _most_threads


def _step(network, state, rows, word_ids):
    return network.step({key: value[rows] for key, value in state.items()}, word_ids)


def _step_parts(network, state, rows, word_ids, cpus):
    """One step over `rows` (a multiple of ``ROW_BLOCK``), cut into up to
    `cpus` parts of at least ``PART_ROWS`` rows on block boundaries; part 0
    runs on this thread.  Returns each part's ``(probs, state)`` in row order."""
    blocks = len(rows) // ROW_BLOCK
    parts = max(1, min(cpus, len(rows) // PART_ROWS))
    if parts == 1:
        return [_step(network, state, rows, word_ids)]
    global _pool, _most_threads
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="classlm-step")
        _most_threads = max(_most_threads, parts)
    network.step_graph()  # built here, so two threads never race to build it
    bounds = [ROW_BLOCK * (blocks * i // parts) for i in range(parts + 1)]
    futures = [_pool.submit(_step, network, state, rows[lo:hi], word_ids[lo:hi])
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = _step(network, state, rows[:bounds[1]], word_ids[:bounds[1]])
    finally:
        wait(futures)  # no part outlives the call, failed or not
    return [first] + [future.result() for future in futures]


def step_rows(network, state, rows, word_ids):
    """One network step from each state row in `rows` on the matching word id.

    Returns ``(class probabilities, new state)`` with one row per entry of
    `rows`.  The rows are padded to a multiple of ``ROW_BLOCK`` by repeating
    the last one and run at most ``MAX_STEP_ROWS`` per step, so every matmul
    runs in fixed row blocks and a row's results are bitwise the same
    whatever other rows it runs with; the padding rows are dropped.

    A step of at least two parts of ``PART_ROWS`` rows runs as contiguous
    parts on block boundaries, one per CPU of the process's affinity mask
    at most: the first on the calling thread, the others on worker threads.
    Row blocks make the parts' results the bits of one serial step.  A part
    that raises does so here, after every other part has ended.
    """
    n = len(rows)
    pad = -n % ROW_BLOCK
    rows = np.concatenate([rows, np.repeat(rows[-1:], pad)])
    word_ids = np.concatenate([word_ids, np.repeat(word_ids[-1:], pad)])
    cpus = cpu_count()
    steps = [step for lo in range(0, len(rows), MAX_STEP_ROWS)
             for step in _step_parts(network, state, rows[lo:lo + MAX_STEP_ROWS],
                                     word_ids[lo:lo + MAX_STEP_ROWS], cpus)]
    probs = np.concatenate([p for p, _ in steps])[:n]
    return probs, {key: np.concatenate([s[key] for _, s in steps])[:n] for key in state}


def score_sentences(network, sentences, unk_policy="include"):
    """Score a batch of token sequences; returns one ScoreResult per sentence.

    The batch is walked as one prefix trie, level by level: level t holds
    the distinct prefixes ``<s> w1 ... wt`` of the sentences that still
    predict a token there, and one network step (more above
    ``MAX_STEP_ROWS`` rows, in parts on threads from ``2 * PART_ROWS``)
    advances all of them from their parents' states.  A prefix shared by
    many sentences runs once, and sentences of every length step together.
    Levels run through :func:`step_rows`, so a sentence's scores are
    bitwise the same whatever it is batched with, alone included.
    """
    _check_policy(unk_policy)
    framed = []
    for tokens in sentences:
        tokens = list(tokens)
        if not tokens:
            raise ValueError("cannot score an empty sentence")
        framed.append(network.vocab.frame(tokens))
    if not framed:
        return []

    lengths = np.array([len(f) for f in framed])
    ids = np.zeros((len(framed), lengths.max()), dtype=np.int64)
    for row, f in zip(ids, framed):
        row[:len(f)] = f
    targets = ids[:, 1:]
    # counted[i, t]: position t of sentence i is predicted and included
    counted = np.arange(targets.shape[1]) < (lengths - 1)[:, None]
    if unk_policy == "exclude":
        counted &= targets != network.vocab.unk_id

    class_of = network.classes.class_of
    log_membership = network.classes.log_membership
    num_words = len(network.vocab)
    logp = np.zeros(targets.shape)
    totals = np.zeros(len(framed))
    node = np.zeros(len(framed), dtype=np.int64)  # each sentence's node at level t
    state = network.initial_state(1)
    for t in range(targets.shape[1]):
        active = np.flatnonzero(lengths > t + 1)
        codes, node[active] = np.unique(node[active] * num_words + ids[active, t],
                                        return_inverse=True)
        probs, state = step_rows(network, state, codes // num_words, codes % num_words)
        level = targets[active, t]
        with np.errstate(divide="ignore"):
            logp[active, t] = np.log(probs[node[active], class_of[level]]) + log_membership[level]
        # one position per level: the running sum one-at-a-time scoring forms
        np.add(totals, logp[:, t], out=totals, where=counted[:, t])

    values = logp.astype(object)
    values[~counted] = None
    return [ScoreResult(float(total), row[:n - 1].tolist(), int(c))
            for total, row, n, c in zip(totals, values, lengths, counted.sum(axis=1))]


def score_sentence(network, tokens, unk_policy="include"):
    """Score one sentence; see :func:`score_sentences`."""
    return score_sentences(network, [tokens], unk_policy)[0]


def perplexity(results):
    """Perplexity of scored sentences: exp of the average negative
    log-probability per counted token."""
    total = sum(r.total for r in results)
    counted = sum(r.counted for r in results)
    if counted == 0:
        raise ValueError("no counted tokens; cannot compute perplexity")
    with np.errstate(over="ignore"):
        return float(np.exp(-total / counted))


def corpus_perplexity(network, sentences, unk_policy="include"):
    """Perplexity of a corpus; see :func:`perplexity`.

    Counted tokens include the sentence-end token of every sentence, never
    the start token, and respect `unk_policy`.
    """
    return perplexity(score_sentences(network, sentences, unk_policy))
