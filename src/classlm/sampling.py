"""Text generation by ancestral sampling from a trained model.

Each position samples a class from the network's class distribution, then a
word from the fixed membership distribution of that class.  Generation
starts from the sentence-start token and stops at the sentence-end token or
after `max_tokens` words.

All sentences advance together: one network step per position runs every
sentence still live, and a sentence that draws the end token leaves the
batch.  Sentence i draws from its own random stream, the i-th child of
``SeedSequence(seed)``, and the steps run through
:func:`~classlm.scoring.step_rows`, so its text depends only on the seed, i
and the model: it is the same for every `count` above i.
"""

from __future__ import annotations

import numpy as np

from .scoring import step_rows

__all__ = ["sample_text"]


def _sample(rng, cumulative):
    r = rng.random() * cumulative[-1]
    return min(int(np.searchsorted(cumulative, r, side="right")), len(cumulative) - 1)


def sample_text(network, seed, max_tokens, count=1):
    """Generate `count` sentences; returns lists of tokens without framing."""
    if max_tokens < 0 or count < 0:
        raise ValueError("max_tokens and count must be non-negative")
    classes = network.classes
    vocab = network.vocab
    member_ids = [np.asarray(ms, dtype=np.int64) for ms in classes.members]
    member_cum = [np.cumsum(classes.membership[ids]) for ids in member_ids]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]

    sentences = [[] for _ in range(count)]
    live = list(range(count))  # the sentence of each state row
    rows = np.zeros(count, dtype=np.int64)  # state rows that continue a live sentence
    words = np.full(count, vocab.start_id, dtype=np.int64)
    state = network.initial_state(1)
    for _ in range(max_tokens):
        if not live:
            break
        probs, state = step_rows(network, state, rows, words)
        cumulative = np.cumsum(probs, axis=1)
        kept, drawn = [], []
        for row, i in enumerate(live):
            c = _sample(rngs[i], cumulative[row])
            members = member_ids[c]
            word = int(members[0] if members.size == 1
                       else members[_sample(rngs[i], member_cum[c])])
            if word != vocab.end_id:
                sentences[i].append(vocab.word_of(word))
                kept.append(row)
                drawn.append(word)
        live = [live[row] for row in kept]
        rows = np.asarray(kept, dtype=np.int64)
        words = np.asarray(drawn, dtype=np.int64)
    return sentences
