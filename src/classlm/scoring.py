"""Sentence log-probabilities and corpus perplexity.

Every sentence is framed as ``<s> w1 ... wn </s>``: the start token is
input-only and the end token is a predicted position.  A predicted token
contributes

    log P(w | history) = log P(c(w) | history) + log P(w | c(w))

Unknown-word handling follows `unk_policy`: with ``"include"`` the unknown
token is scored like any word; with ``"exclude"`` positions whose target is
``<unk>`` contribute neither to the total nor to the token count, although
the history still advances through them.

:func:`score_arrays` is the scoring core.  It frames every sentence in
one pass over the tokens (:func:`~classlm.vocabulary.frame_sentences`)
into a padded (sentence, position) id matrix, walks the sentences' prefix trie one network step per level, and returns
the totals, the counted-token numbers and the per-position
log-probabilities as arrays (:class:`ScoreArrays`), which perplexity and
every caller in the package read.

:func:`step_rows` runs each level.  A level that runs as one part returns
that part's arrays; a level split across steps or threads is written part
by part, on the thread that ran each part, into arrays allocated once by
the calling thread.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .graph import ROW_BLOCK
from .vocabulary import frame_sentences

__all__ = ["ScoreArrays", "corpus_perplexity", "perplexity", "score_arrays"]

UNK_POLICIES = ("include", "exclude")

# Rows per network step, a multiple of ROW_BLOCK: a trie level or a sampling
# position wider than this is split, which bounds a step's memory on large
# inputs and, since rows are computed in independent blocks, changes no
# result.
MAX_STEP_ROWS = 128 * ROW_BLOCK

# Rows per part of a step split across threads, at least, so a step splits
# from 160 rows on.  Two parts on pinned workers against one step on the
# calling thread, on windows of the benchmark's trie levels at the sizes of
# the `rescore` and of the `train` benchmark model, on a 2-core host with
# one BLAS thread (medians of 200 steps, three sessions): 0.97-1.09x the
# speed at 128 rows, 1.03-1.17x at 144, 1.00-1.20x at 160, 1.10-1.26x at
# 192 and 1.27-1.34x at 256.
PART_ROWS = 80

_pool = None  # worker threads for the parts of split steps, made on first use
_pool_lock = threading.Lock()
_most_threads = 1  # read by threads_used()


def _check_policy(unk_policy):
    if unk_policy not in UNK_POLICIES:
        raise ValueError(f"unk_policy must be one of {UNK_POLICIES}, got {unk_policy!r}")


def cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _pinned_pool(workers):
    """A pool of `workers` threads, each pinned when it starts to one CPU of
    this thread's affinity mask, taking the CPUs in turn, so that the parts
    of a step run side by side.  A worker whose pin fails, or any worker on
    a platform without affinity masks, runs unpinned; the calling thread's
    affinity is never changed."""
    if not hasattr(os, "sched_setaffinity"):
        return ThreadPoolExecutor(workers, thread_name_prefix="classlm-step")
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    lock = threading.Lock()  # workers start concurrently

    def pin():
        with lock:
            cpu = next(cpus)
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # a pin the system refuses: the worker runs unpinned
            pass

    return ThreadPoolExecutor(workers, thread_name_prefix="classlm-step", initializer=pin)


def threads_used():
    """The most threads one :func:`step_rows` step has run on in this process."""
    return _most_threads


def _step(network, state, rows, word_ids):
    return network.step({key: value[rows] for key, value in state.items()}, word_ids)


def _step_into(result, lo, network, state, rows, word_ids):
    """One part of a step, written into rows ``lo ...`` of `result`."""
    probs, new = _step(network, state, rows, word_ids)
    hi = lo + len(rows)
    result[0][lo:hi] = probs
    for key, value in new.items():
        result[1][key][lo:hi] = value


def _part_bounds(rows, cpus):
    """Bounds of the parts of a step of `rows` rows (a multiple of
    ``ROW_BLOCK``): up to `cpus` contiguous parts of at least ``PART_ROWS``
    rows, on block boundaries."""
    blocks = rows // ROW_BLOCK
    parts = max(1, min(cpus, rows // PART_ROWS))
    return [ROW_BLOCK * (blocks * i // parts) for i in range(parts + 1)]


def _step_parts(network, state, rows, word_ids, result, bounds, cpus):
    """One step over the parts ``rows[bounds[i]:bounds[i + 1]]``, each
    written into its rows of `result`.  One part runs on this thread; two
    or more run on the pinned workers while this thread waits, since this
    thread may share a CPU with a worker."""
    parts = [(lo, network, state, rows[lo:hi], word_ids[lo:hi])
             for lo, hi in zip(bounds, bounds[1:])]
    if len(parts) == 1:
        _step_into(result, *parts[0])
        return
    global _pool, _most_threads
    with _pool_lock:
        if _pool is None:
            _pool = _pinned_pool(cpus)
        _most_threads = max(_most_threads, len(parts))
    network.step_graph()  # built here, so two threads never race to build it
    futures = [_pool.submit(_step_into, result, *part) for part in parts]
    wait(futures)  # no part outlives the call, failed or not
    for future in futures:
        future.result()


def step_rows(network, state, rows, word_ids):
    """One network step from each state row in `rows` on the matching word id.

    Returns ``(class probabilities, new state)`` with one row per entry of
    `rows`.  The rows are padded to a multiple of ``ROW_BLOCK`` by repeating
    the last one and run at most ``MAX_STEP_ROWS`` per step, so every matmul
    runs in fixed row blocks and a row's results are bitwise the same
    whatever other rows it runs with; the padding rows are dropped.

    A step of at least two parts of ``PART_ROWS`` rows runs as contiguous
    parts on block boundaries, one per CPU of the process's affinity mask
    at most, each on a worker thread pinned to its own CPU.  Row blocks make
    the parts' results the bits of one serial step.  A part that raises
    does so here, after every other part has ended.

    A level that runs as one part returns views of that part's arrays.  For
    any other level this thread allocates the result, and every part writes
    its rows into it on the thread that ran it.
    """
    n = len(rows)
    pad = -n % ROW_BLOCK
    rows = np.concatenate([rows, np.repeat(rows[-1:], pad)])
    word_ids = np.concatenate([word_ids, np.repeat(word_ids[-1:], pad)])
    cpus = cpu_count()
    steps = [[lo + b for b in _part_bounds(min(MAX_STEP_ROWS, len(rows) - lo), cpus)]
             for lo in range(0, len(rows), MAX_STEP_ROWS)]
    if len(steps) == 1 and len(steps[0]) == 2:
        probs, new = _step(network, state, rows, word_ids)
        return probs[:n], {key: value[:n] for key, value in new.items()}
    # a step's values have the type of its parameters and input state together
    dtype = np.result_type(network.dtype, *state.values())
    result = (np.empty((len(rows), network.classes.num_classes), dtype),
              {key: np.empty((len(rows), *value.shape[1:]), dtype)
               for key, value in state.items()})
    for bounds in steps:
        _step_parts(network, state, rows, word_ids, result, bounds, cpus)
    return result[0][:n], {key: value[:n] for key, value in result[1].items()}


@dataclass
class ScoreArrays:
    """Scores of N sentences as arrays; row i is sentence i.

    `logp[i, t]` is the log-probability of the token predicted at position
    t (w1 ... wn </s>), for t < `predicted[i]`; `included[i, t]` marks the
    positions counted under the unknown-word policy.  `totals[i]` sums
    sentence i's included positions one at a time in position order, and
    `counted[i]` is their number.
    """

    totals: np.ndarray
    counted: np.ndarray
    logp: np.ndarray
    included: np.ndarray
    predicted: np.ndarray


def score_arrays(network, sentences, unk_policy="include"):
    """Score a batch of token sequences as arrays; see :class:`ScoreArrays`.

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
    stream, words = frame_sentences(network.vocab, sentences)
    if not words.all():
        raise ValueError("cannot score an empty sentence")
    ids = np.zeros((len(words), words.max(initial=0) + 2), dtype=np.int64)
    ids[np.arange(ids.shape[1]) < words[:, None] + 2] = stream
    predicted = words + 1  # positions, </s> included
    targets = ids[:, 1:]
    # included[i, t]: position t of sentence i is predicted and counted
    included = np.arange(targets.shape[1]) < predicted[:, None]
    if unk_policy == "exclude":
        included &= targets != network.vocab.unk_id

    class_of = network.classes.class_of
    log_membership = network.classes.log_membership
    logp = np.zeros(targets.shape)
    totals = np.zeros(len(ids))
    node = np.zeros(len(ids), dtype=np.int64)  # each sentence's node at level t
    parents = 1  # nodes at the level before
    state = network.initial_state(1)
    for t in range(predicted.max(initial=0)):
        active = np.flatnonzero(predicted > t)
        # word-major: the contiguous parts of a split step share one word at most
        codes, node[active] = np.unique(ids[active, t] * parents + node[active],
                                        return_inverse=True)
        probs, state = step_rows(network, state, codes % parents, codes // parents)
        parents = len(codes)
        level = targets[active, t]
        with np.errstate(divide="ignore"):
            logp[active, t] = np.log(probs[node[active], class_of[level]]) + log_membership[level]
        del probs  # not held while the next level steps
        # one position per level: the running sum one-at-a-time scoring forms
        np.add(totals, logp[:, t], out=totals, where=included[:, t])
    return ScoreArrays(totals, included.sum(axis=1), logp, included, predicted)


def perplexity(totals, counted):
    """Perplexity of scored sentences from their totals and counted tokens:
    exp of the average negative log-probability per counted token.

    The totals are summed one at a time in order, so the result does not
    depend on how the Python version sums floats (``sum`` compensates its
    rounding from Python 3.12 on)."""
    total = 0.0
    for value in totals:
        total += value
    counted = int(np.sum(counted))
    if counted == 0:
        raise ValueError("no counted tokens; cannot compute perplexity")
    with np.errstate(over="ignore"):
        return float(np.exp(-total / counted))


def corpus_perplexity(network, sentences, unk_policy="include"):
    """Perplexity of a corpus; see :func:`perplexity`.

    Counted tokens include the sentence-end token of every sentence, never
    the start token, and respect `unk_policy`.
    """
    scores = score_arrays(network, sentences, unk_policy)
    return perplexity(scores.totals.tolist(), scores.counted)
