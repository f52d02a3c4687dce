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
into a padded (sentence, position) id matrix, walks the sentences' prefix
trie one :meth:`~classlm.network.Network.step` per level, and returns the
totals, the counted-token numbers and the per-position log-probabilities
as arrays (:class:`ScoreArrays`), which perplexity and every caller in the
package read.  Each step returns only the class probability that each
sentence reads, never a level's (rows x classes) array.

:func:`score_groups` scores an input of any size in consecutive groups of
at most ``GROUP_ELEMENTS`` (sentence, position) cells, so that its memory
does not grow with the input; ``classlm score`` and
:func:`corpus_perplexity` read their sentences through it, and the
perplexity adds the totals left to right across groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocabulary import frame_sentences

__all__ = ["GROUP_ELEMENTS", "ScoreArrays", "add_in_order", "corpus_perplexity", "perplexity",
           "score_arrays", "score_groups"]

UNK_POLICIES = ("include", "exclude")

# (sentence, position) cells of one group of :func:`score_groups`, at most:
# a group's id, log-probability and inclusion matrices take about 17 bytes
# a cell, and it steps at most GROUP_ELEMENTS / 3 sentences at once.
GROUP_ELEMENTS = 1 << 16


def _check_policy(unk_policy):
    if unk_policy not in UNK_POLICIES:
        raise ValueError(f"unk_policy must be one of {UNK_POLICIES}, got {unk_policy!r}")


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
    predict a token there, and one call of
    :meth:`~classlm.network.Network.step` advances all of them from their
    parents' states and returns the probability of each sentence's target
    class, read from its own prefix's row.  A prefix shared by many
    sentences runs once, and sentences of every length step together.  A
    step's rows keep their bits whatever other rows they run with, so a
    sentence's scores are bitwise the same whatever it is batched with,
    alone included.
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
        level = targets[active, t]
        # each sentence's class probability, read from its own node's row
        probs, state = network.step(state, codes % parents, codes // parents,
                                    (node[active], class_of[level]))
        parents = len(codes)
        with np.errstate(divide="ignore"):
            logp[active, t] = np.log(probs) + log_membership[level]
        del probs  # not held while the next level steps
        # one position per level: the running sum one-at-a-time scoring forms
        np.add(totals, logp[:, t], out=totals, where=included[:, t])
    return ScoreArrays(totals, included.sum(axis=1), logp, included, predicted)


def add_in_order(total, values):
    """`total` plus `values` added one at a time in order, as
    :func:`perplexity` sums totals; a running sum kept this way over
    consecutive runs of totals is the sum of all of them."""
    for value in values:
        total += value
    return total


def perplexity(totals, counted):
    """Perplexity of scored sentences from their totals and counted tokens:
    exp of the average negative log-probability per counted token.

    The totals are summed one at a time in order, so the result does not
    depend on how the Python version sums floats (``sum`` compensates its
    rounding from Python 3.12 on)."""
    total = add_in_order(0.0, totals)
    counted = int(np.sum(counted))
    if counted == 0:
        raise ValueError("no counted tokens; cannot compute perplexity")
    with np.errstate(over="ignore"):
        return float(np.exp(-total / counted))


def score_groups(network, sentences, unk_policy="include"):
    """Score an iterable of sentences in consecutive groups, in input order.

    Yields ``(group, totals, counted)`` per group: the group's sentences
    and their :class:`ScoreArrays` totals and counted-token numbers.  A
    group closes before the sentence that would take its sentences times
    (longest + 2) past ``GROUP_ELEMENTS``, so what one group holds is
    bounded whatever the input size; a sentence longer than that forms a
    group of its own.  The sentences are read one at a time, and a group's
    are dropped once it is scored and the caller moves on.  A sentence's
    scores do not depend on its batch, so the groups give the bits of one
    call of :func:`score_arrays` on every sentence.
    """
    _check_policy(unk_policy)

    def scored(group):  # drops the group's (sentence, position) arrays on return
        scores = score_arrays(network, group, unk_policy)
        return group, scores.totals, scores.counted

    group, longest = [], 0
    for sentence in sentences:
        sentence = sentence if isinstance(sentence, (list, tuple)) else list(sentence)
        if group and (len(group) + 1) * (max(longest, len(sentence)) + 2) > GROUP_ELEMENTS:
            yield scored(group)
            group, longest = [], 0
        group.append(sentence)
        longest = max(longest, len(sentence))
    if group:
        yield scored(group)


def corpus_perplexity(network, sentences, unk_policy="include"):
    """Perplexity of a corpus, scored in groups; see :func:`perplexity`.

    Counted tokens include the sentence-end token of every sentence, never
    the start token, and respect `unk_policy`.
    """
    total, counted = 0.0, 0
    for _, totals, group_counted in score_groups(network, sentences, unk_policy):
        total = add_in_order(total, totals.tolist())
        counted += int(group_counted.sum())
    return perplexity([total], counted)  # 0.0 + total is total
