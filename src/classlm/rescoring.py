"""N-best list rescoring with interpolated language model scores.

Each hypothesis carries an acoustic log-probability and a back-off language
model log-probability from the first decoding pass (natural logarithms).
The network contributes log P_nn, and the combined language model score is

    (1 - lambda) * s_bo * log P_bo  +  lambda * s_nn * log P_nn

The total hypothesis score adds the acoustic term; hypotheses are reranked
per utterance by total score, descending, with ties keeping the original
order.  Interpolation weights can be tuned on a reference set by grid
search over (lambda, s_nn) with s_bo fixed to the back-off model's scale;
the tuning pass returns the network scores it computed, so reranking with
the tuned weights scores no hypothesis a second time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scoring import score_sentences
from .vocabulary import text_lines

__all__ = [
    "InterpolationParams",
    "NBestHypothesis",
    "edit_distance",
    "edit_distances",
    "optimize_interpolation",
    "read_nbest_file",
    "read_reference_file",
    "rescore_nbest",
    "score_hypotheses",
]


@dataclass(frozen=True)
class InterpolationParams:
    lam: float
    s_bo: float = 1.0
    s_nn: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if not (0 < self.s_bo < math.inf and 0 < self.s_nn < math.inf):
            raise ValueError("scale factors must be positive and finite")

    def combine(self, log_p_bo, log_p_nn):
        return (1.0 - self.lam) * self.s_bo * log_p_bo + self.lam * self.s_nn * log_p_nn


@dataclass(frozen=True)
class NBestHypothesis:
    utterance_id: str
    acoustic: float  # acoustic log-probability (natural log, possibly scaled)
    backoff: float   # back-off LM log-probability (natural log)
    tokens: tuple

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("hypothesis has no tokens")


@dataclass(frozen=True)
class RescoredHypothesis:
    hypothesis: NBestHypothesis
    log_p_nn: float
    lm_score: float
    total: float


def read_nbest_file(path):
    """Parse ``utt_id acoustic backoff w1 ... wN`` lines, grouped by utterance.

    Grouping does not require contiguous lines; within an utterance the
    original line order is kept (it defines the first-pass ranking).
    """
    by_utterance = {}
    for line_no, line in enumerate(text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 4:
            raise ValueError(
                f"{path}: line {line_no}: expected 'utt_id acoustic backoff words...'"
            )
        try:
            acoustic = float(parts[1])
            backoff = float(parts[2])
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: scores are not numbers")
        if not (math.isfinite(acoustic) and math.isfinite(backoff)):
            raise ValueError(f"{path}: line {line_no}: scores must be finite")
        hyp = NBestHypothesis(parts[0], acoustic, backoff, tuple(parts[3:]))
        by_utterance.setdefault(parts[0], []).append(hyp)
    if not by_utterance:
        raise ValueError(f"{path}: no hypotheses")
    return by_utterance


def read_reference_file(path):
    """Parse ``utt_id w1 ... wN`` reference transcripts."""
    refs = {}
    for line_no, line in enumerate(text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ValueError(f"{path}: line {line_no}: expected 'utt_id words...'")
        if parts[0] in refs:
            raise ValueError(f"{path}: line {line_no}: duplicate utterance {parts[0]!r}")
        refs[parts[0]] = tuple(parts[1:])
    if not refs:
        raise ValueError(f"{path}: no references")
    return refs


def score_hypotheses(by_utterance, network, unk_policy="include"):
    """Network log-probability of every hypothesis, computed once.

    Returns a map from utterance id to the list of log P_nn values aligned
    with that utterance's hypotheses.
    """
    order = []
    texts = []
    for utt, hyps in by_utterance.items():
        if not hyps:
            raise ValueError(f"utterance {utt!r} has an empty hypothesis list")
        for i, hyp in enumerate(hyps):
            order.append((utt, i))
            texts.append(list(hyp.tokens))
    results = score_sentences(network, texts, unk_policy)
    scores = {utt: [0.0] * len(hyps) for utt, hyps in by_utterance.items()}
    for (utt, i), res in zip(order, results):
        scores[utt][i] = res.total
    return scores


def _rerank(by_utterance, nn_scores, params):
    reranked = {}
    for utt, hyps in by_utterance.items():
        rows = []
        for hyp, log_p_nn in zip(hyps, nn_scores[utt]):
            lm = params.combine(hyp.backoff, log_p_nn)
            rows.append(RescoredHypothesis(hyp, log_p_nn, lm, hyp.acoustic + lm))
        # stable sort: ties keep the first-pass order
        reranked[utt] = sorted(rows, key=lambda r: -r.total)
    return reranked


def rescore_nbest(by_utterance, network, params, unk_policy="include", nn_scores=None):
    """Rerank every utterance's hypotheses by acoustic + interpolated LM score.

    `nn_scores`, when given, holds log P_nn per hypothesis as returned by
    :func:`score_hypotheses` or :func:`optimize_interpolation`, and the
    network is not run.
    """
    if nn_scores is None:
        nn_scores = score_hypotheses(by_utterance, network, unk_policy)
    return _rerank(by_utterance, nn_scores, params)


def edit_distance(hyp, ref):
    """Word-level Levenshtein distance (substitutions + insertions + deletions)."""
    return int(edit_distances([hyp], [ref])[0])


def edit_distances(hyps, refs):
    """Levenshtein distance of each ``hyps[i]`` to ``refs[i]``, as an int array.

    One dynamic program over all pairs at once: row i of the table holds the
    distances from the first i words of every hypothesis to each prefix of
    its (padded) reference, and a hypothesis that has run out keeps its row.
    Padding sits right of a reference's end, where it cannot reach the
    distances at or left of the end.
    """
    seqs = [*hyps, *refs]
    words = [w for seq in seqs for w in seq]
    code = {w: i for i, w in enumerate(dict.fromkeys(words))}
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    ids = np.full((len(seqs), lengths.max(initial=0)), -1)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = [code[w] for w in words]
    hyp_ids, ref_ids = ids[:len(hyps)], ids[len(hyps):]
    hyp_len, ref_len = lengths[:len(hyps)], lengths[len(hyps):]

    j = np.arange(ids.shape[1] + 1)
    row = np.tile(j, (len(hyps), 1))
    for i in range(hyp_len.max(initial=0)):
        cur = np.empty_like(row)
        cur[:, 0] = i + 1
        # from the row above: a deletion (same column) or a substitution or
        # match (one column left)
        np.minimum(row[:, 1:] + 1, row[:, :-1] + (hyp_ids[:, i:i + 1] != ref_ids), out=cur[:, 1:])
        # insertions: cur[j] = min over k <= j of cur[k] + (j - k)
        cur = np.minimum.accumulate(cur - j, axis=1) + j
        row = np.where((i < hyp_len)[:, None], cur, row)
    return row[np.arange(len(row)), ref_len]


def _padded(rows, fill):
    """Rows of unequal length as one array of `fill`'s type, padded with `fill`."""
    out = np.full((len(rows), max(len(r) for r in rows)), fill)
    for u, row in enumerate(rows):
        out[u, :len(row)] = row
    return out


def optimize_interpolation(
    by_utterance, references, network, s_bo, lambda_grid, snn_grid, unk_policy="include"
):
    """Grid-search (lambda, s_nn) minimizing total word errors on references.

    The error count is the summed edit distance (computed once per
    hypothesis) between each utterance's top-ranked hypothesis, the first of
    equal totals as in :func:`rescore_nbest`, and its reference.  Ties prefer
    the smaller lambda, then the smaller s_nn.

    Every hypothesis is scored once, and all grid points are evaluated at
    once on (grid point, utterance, hypothesis) arrays whose totals are
    formed in the operation order of :meth:`InterpolationParams.combine`, so
    they equal the totals :func:`rescore_nbest` prints.  Returns
    ``(params, errors, nn_scores)``; pass `nn_scores` on to
    :func:`rescore_nbest` to rerank without scoring again.
    """
    lambda_grid = sorted(set(float(x) for x in lambda_grid))
    snn_grid = sorted(set(float(x) for x in snn_grid))
    if not lambda_grid or not snn_grid:
        raise ValueError("empty tuning grid")
    missing = [utt for utt in by_utterance if utt not in references]
    if missing:
        raise ValueError(f"no reference for utterance(s): {', '.join(sorted(missing))}")
    for lam in lambda_grid:
        for s_nn in snn_grid:
            InterpolationParams(lam, s_bo, s_nn)  # rejects an invalid grid point

    nn_scores = score_hypotheses(by_utterance, network, unk_policy)
    hyps = list(by_utterance.values())
    # padding: an acoustic score of -inf never ranks first, and zero
    # back-off and network scores keep its total -inf at every grid point
    acoustic = _padded([[h.acoustic for h in hs] for hs in hyps], -np.inf)
    backoff = _padded([[h.backoff for h in hs] for hs in hyps], 0.0)
    nn = _padded(list(nn_scores.values()), 0.0)
    flat = edit_distances([h.tokens for hs in hyps for h in hs],
                          [references[utt] for utt, hs in by_utterance.items() for _ in hs])
    ends = np.cumsum([len(hs) for hs in hyps])
    hyp_errors = _padded(np.split(flat, ends[:-1]), 0)

    lam = np.array(lambda_grid)[:, None, None, None]
    s_nn = np.array(snn_grid)[None, :, None, None]
    # the operation order of InterpolationParams.combine, so ties break alike
    totals = acoustic + (((1.0 - lam) * s_bo) * backoff + (lam * s_nn) * nn)
    top = totals.argmax(axis=-1)  # first of equal totals
    errors = hyp_errors[np.arange(len(hyps)), top].sum(axis=-1)
    li, si = np.unravel_index(errors.argmin(), errors.shape)  # first of equal counts
    best = InterpolationParams(lambda_grid[li], s_bo, snn_grid[si])
    return best, int(errors[li, si]), nn_scores
