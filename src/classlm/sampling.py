"""Text generation by ancestral sampling from a trained model.

Each position samples a class from the network's class distribution, then a
word from the fixed membership distribution of that class.  Generation
starts from the sentence-start token and stops at the sentence-end token or
after `max_tokens` words.

All sentences advance together: one network step per position runs every
sentence still live, and a sentence that draws the end token leaves the
batch.  The first step, where every sentence has the start state and the
start token, runs one row for all of them.  Sentence i draws from its own random stream, the i-th child of
``SeedSequence(seed)``, and the steps run through
:func:`~classlm.scoring.step_rows`, so its text depends only on the seed, i
and the model: it is the same for every `count` above i.

Draw order: at each position a sentence takes the next uniform u of its
stream for the class, the first class whose running probability sum exceeds
u times the total (the last class if none does), and a second uniform for
the word only when that class has more than one member, picked the same way
from the class's running membership sums.  A stream's uniforms are drawn
several at a time, which gives the same numbers as one draw after another.
"""

from __future__ import annotations

import numpy as np

from .scoring import step_rows

__all__ = ["sample_text"]

# Uniforms drawn from one sentence's stream at a time, at most.
UNIFORM_BLOCK = 64
# Elements of one member-pick comparison block (rows x widest drawn class).
PICK_BLOCK_ELEMENTS = 1 << 16


def _pick(cumulative, r, last):
    """Per row, the number of entries of `cumulative` at most `r`, capped
    at `last`: ``searchsorted(row, r, side="right")`` on non-decreasing rows."""
    return np.minimum((cumulative <= r[:, None]).sum(1), last)


class _Uniforms:
    """Each sentence's uniforms from its own stream, drawn `block` at a time
    and handed out in order, one per sentence per :meth:`take`."""

    def __init__(self, seed, count, block):
        self.rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]
        self.values = np.empty((count, block))
        self.used = np.full(count, block)

    def take(self, sentences):
        """The next uniform of each of `sentences` (distinct ids)."""
        block = self.values.shape[1]
        spent = sentences[self.used[sentences] == block]
        for i in spent.tolist():
            self.values[i] = self.rngs[i].random(block)
        self.used[spent] = 0
        u = self.values[sentences, self.used[sentences]]
        self.used[sentences] += 1
        return u


def _pick_classes(cumulative, u):
    """The class drawn with uniform `u[i]` from the running probability sums
    in row i of `cumulative`."""
    # r has the type of a Python float times one probability: float32 for
    # single precision under numpy 2 promotion rules
    r = u.astype(type(cumulative.dtype.type(1) * 1.0)) * cumulative[:, -1]
    return _pick(cumulative, r, cumulative.shape[1] - 1)


def _pick_members(classes, c, u):
    """The word drawn with uniform `u[i]` from class `c[i]`'s members."""
    words, starts, sizes, cumulative = classes.member_tables
    start, last = starts[c], sizes[c] - 1
    r = u * cumulative[start + last]
    width = int(last.max()) + 1
    rows = max(1, PICK_BLOCK_ELEMENTS // width)
    picked = np.empty_like(c)
    for lo in range(0, len(c), rows):
        part = slice(lo, lo + rows)
        # entries past a class's end repeat its last one, which r never
        # exceeds except where the cap applies anyway
        block = cumulative[start[part, None] + np.minimum(np.arange(width), last[part, None])]
        picked[part] = _pick(block, r[part], last[part])
    return words[start + picked]


def sample_text(network, seed, max_tokens, count=1):
    """Generate `count` sentences; returns lists of tokens without framing."""
    if max_tokens < 0 or count < 0:
        raise ValueError("max_tokens and count must be non-negative")
    classes = network.classes
    vocab = network.vocab
    uniforms = _Uniforms(seed, count, min(2 * max_tokens, UNIFORM_BLOCK))
    words, starts, sizes, _ = classes.member_tables

    live = np.arange(count)  # the sentence of each state row
    # every sentence starts from the one zero state row on the start token,
    # so the first step runs that row once: by the row rule it has the bits
    # that each sentence's own row would have
    rows = np.zeros(1, dtype=np.int64)  # state rows that continue a live sentence
    drawn = np.full(1, vocab.start_id, dtype=np.int64)
    state = network.initial_state(1)
    none = np.zeros(0, dtype=np.int64)
    sentence_ids, word_ids = [none], [none]  # per step, of the words kept
    for _ in range(max_tokens):
        if not live.size:
            break
        probs, state = step_rows(network, state, rows, drawn)
        cumulative = np.cumsum(probs, axis=1)
        if len(cumulative) < live.size:  # the first step; the next gather copies its row
            cumulative = np.broadcast_to(cumulative, (live.size, cumulative.shape[1]))
            state = {key: np.broadcast_to(value, (live.size, *value.shape[1:]))
                     for key, value in state.items()}
        c = _pick_classes(cumulative, uniforms.take(live))
        drawn = words[starts[c]]
        several = np.flatnonzero(sizes[c] > 1)
        if several.size:
            drawn[several] = _pick_members(classes, c[several], uniforms.take(live[several]))
        rows = np.flatnonzero(drawn != vocab.end_id)
        live, drawn = live[rows], drawn[rows]
        sentence_ids.append(live)
        word_ids.append(drawn)

    sentence_ids = np.concatenate(sentence_ids)
    order = np.argsort(sentence_ids, kind="stable")
    tokens = [vocab.words[w] for w in np.concatenate(word_ids)[order].tolist()]
    ends = np.cumsum(np.bincount(sentence_ids, minlength=count)).tolist()
    return [tokens[a:b] for a, b in zip([0, *ends], ends)]
