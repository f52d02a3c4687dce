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
package read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocabulary import frame_sentences

__all__ = ["ScoreArrays", "corpus_perplexity", "perplexity", "score_arrays"]

UNK_POLICIES = ("include", "exclude")


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
    parents' states.  A prefix shared by many sentences runs once, and
    sentences of every length step together.  A step's rows keep their
    bits whatever other rows they run with, so a sentence's scores are
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
        probs, state = network.step(state, codes % parents, codes // parents)
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
