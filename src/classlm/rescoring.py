"""N-best list rescoring with interpolated language model scores.

Each hypothesis carries an acoustic log-probability and a back-off language
model log-probability from the first decoding pass (natural logarithms);
an n-best list is one :class:`NBest` of columns, no object per hypothesis.
The network contributes log P_nn, and :func:`lm_score` alone forms the
combined language model score

    ((1 - lambda) * s_bo) * log P_bo  +  (lambda * s_nn) * log P_nn

whose network term is zero wherever lambda * s_nn is, even for log P_nn =
-inf.  Reranking and grid-search tuning read one padded (utterance,
hypothesis) table of the scores and rank alike: by acoustic + combined
score, descending, the first of equal totals in first-pass order first.
Tuning returns the network scores it computed, so reranking with the tuned
weights scores no hypothesis again and prints the totals the search
compared.

Everything per hypothesis runs on arrays: the network scores are the
totals of :func:`~classlm.scoring.score_arrays`, word errors come from one
integer program over all hypothesis/reference pairs, and
:func:`rank_hypotheses` returns the ranking as index and score arrays, from
which the command line writes the reranked file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .scoring import score_arrays
from .vocabulary import invalid_utf8, text_lines

__all__ = [
    "InterpolationParams",
    "NBest",
    "edit_distances",
    "optimize_interpolation",
    "rank_hypotheses",
    "read_nbest_file",
    "read_reference_file",
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
        return lm_score(log_p_bo, log_p_nn, self.lam, self.s_bo, self.s_nn)


def lm_score(log_p_bo, log_p_nn, lam, s_bo, s_nn):
    """The combined score of the module docstring, on the scalars of one
    :class:`InterpolationParams` or on arrays that broadcast (the grid).
    Where lam * s_nn is zero, -inf counts as the most negative float, whose
    term is -0.0 like that of any negative log P_nn, not 0 * -inf = nan."""
    w_nn = lam * s_nn
    log_p_nn = np.where(w_nn == 0, np.maximum(log_p_nn, np.finfo(np.float64).min), log_p_nn)
    return ((1.0 - lam) * s_bo) * log_p_bo + w_nn * log_p_nn


@dataclass(frozen=True, eq=False)  # array fields compare elementwise: compare by identity
class NBest:
    """An n-best list as columns: the utterance names in order of first
    appearance, each one's hypothesis count (int64), and per hypothesis its
    acoustic and back-off scores (float64) and token tuple, utterance after
    utterance, each utterance's in the order given (its first-pass ranking).
    """

    utterances: tuple
    counts: np.ndarray
    acoustic: np.ndarray
    backoff: np.ndarray
    tokens: tuple

    @classmethod
    def from_columns(cls, names, acoustic, backoff, tokens):
        """Group per-hypothesis columns by utterance name; an utterance's
        entries need not be contiguous.  A hypothesis without tokens is an
        error."""
        if not all(tokens):
            raise ValueError("hypothesis has no tokens")
        code = {name: i for i, name in enumerate(dict.fromkeys(names))}
        utt = np.fromiter(map(code.__getitem__, names), dtype=np.int64, count=len(names))
        order = np.argsort(utt, kind="stable")
        return cls(tuple(code), np.bincount(utt, minlength=len(code)),
                   np.asarray(acoustic, dtype=np.float64)[order],
                   np.asarray(backoff, dtype=np.float64)[order],
                   tuple(map(tokens.__getitem__, order.tolist())))


def read_nbest_file(path):
    """Parse ``utt_id acoustic backoff w1 ... wN`` lines into an :class:`NBest`.

    The file is read once, split into columns and each score read by
    ``float``; only when a check fails are the lines it holds walked again,
    to name the first line that fails one.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        lines = f.readlines()
    rows = ([] if any(map(invalid_utf8, lines))  # no columns from a file that is not UTF-8
            else [parts for parts in map(str.split, lines) if parts])
    try:
        valid = bool(rows) and min(map(len, rows)) >= 4
        if valid:
            acoustic, backoff = (np.array([float(parts[k]) for parts in rows]) for k in (1, 2))
            valid = np.isfinite(acoustic).all() and np.isfinite(backoff).all()
    except ValueError:  # a score that float() does not read
        valid = False
    if not valid:
        _raise_nbest_error(path, lines)
    del lines  # held to name a failing line only
    return NBest.from_columns([parts[0] for parts in rows], acoustic, backoff,
                              [tuple(parts[3:]) for parts in rows])


def _raise_nbest_error(path, lines):
    """Raise ValueError naming the first of the `lines` of `path` that is
    not UTF-8 or not a well-formed hypothesis, or saying that it holds none."""
    for line_no, line in enumerate(lines, start=1):
        if invalid_utf8(line):
            raise ValueError(f"{path}: line {line_no}: invalid UTF-8")
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 4:
            raise ValueError(
                f"{path}: line {line_no}: expected 'utt_id acoustic backoff words...'"
            )
        try:
            scores = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: scores are not numbers") from None
        if not all(map(math.isfinite, scores)):
            raise ValueError(f"{path}: line {line_no}: scores must be finite")
    raise ValueError(f"{path}: no hypotheses")


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


def score_hypotheses(nbest, network, unk_policy="include"):
    """Network log-probability of every hypothesis of an :class:`NBest`,
    computed once, as one float array in its column order."""
    return score_arrays(network, nbest.tokens, unk_policy).totals


def _score_table(nbest, nn_scores):
    """Acoustic, back-off and network scores as one (3, utterance,
    hypothesis) array, and the mask of the cells that hold a hypothesis.
    A padding cell has scores (-inf, 0, 0): it totals -inf at every weight
    and ranks after its row's hypotheses."""
    real = np.arange(nbest.counts.max(initial=0)) < nbest.counts[:, None]
    table = np.zeros((3, *real.shape))
    table[0, ~real] = -np.inf
    table[:, real] = nbest.acoustic, nbest.backoff, nn_scores
    return table, real


def rank_hypotheses(nbest, nn_scores, params):
    """The reranking of every utterance as arrays over the padded
    (utterance, hypothesis) table.

    Returns ``(order, nn, lm, totals)``: row u of `order` holds utterance
    u's hypothesis indices best first, its padding cells after them, and
    the network, combined and total scores are in first-pass order.
    """
    (acoustic, backoff, nn), _ = _score_table(nbest, nn_scores)
    lm = params.combine(backoff, nn)
    totals = acoustic + lm
    # stable: the first of equal totals first, as the grid search's argmax
    return np.argsort(-totals, axis=-1, kind="stable"), nn, lm, totals


def edit_distances(hyps, refs):
    """Levenshtein distance of each ``hyps[i]`` to ``refs[i]``, as an int array.

    Words are coded as small integers, each distinct reference object once:
    the reference that every hypothesis of an utterance is paired with is
    one column of the reference table.  A word that no reference holds
    matches no reference word, so all such words share one code.

    One dynamic program runs over all pairs at once, on cells of the
    narrowest integer type that holds them: row i of the table holds the
    distances from the first i words of every hypothesis to each prefix of
    its (padded) reference, and a pair's distance is read at the row where
    its hypothesis ends.  Padding sits right of a reference's end, where it
    cannot reach the distances at or left of the end.
    """
    distinct = {id(ref): ref for ref in refs}  # in order of first occurrence
    column = dict(zip(distinct, range(len(distinct))))
    which = np.fromiter(map(column.__getitem__, map(id, refs)), dtype=np.int64, count=len(refs))
    code = {w: i for i, w in enumerate(dict.fromkeys(
        w for ref in distinct.values() for w in ref))}
    other = len(code)  # the code of every other word, and of the padding
    seqs = [*hyps, *distinct.values()]
    words = [w for seq in seqs for w in seq]
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    width = int(lengths.max(initial=0))
    # position-major: one column per sequence
    ids = np.full((width, len(seqs)), other, dtype=np.min_scalar_type(other))
    ids.T[np.arange(width) < lengths[:, None]] = np.fromiter(
        map(code.get, words, itertools.repeat(other, len(words))), dtype=ids.dtype,
        count=len(words))
    hyp_ids, ref_ids = ids[:, :len(hyps)], ids[:, len(hyps):][:, which]
    hyp_len, ref_len = lengths[:len(hyps)], lengths[len(hyps):][which]

    pairs = np.arange(len(hyps))
    distances = ref_len.copy()  # those of the empty hypotheses
    # every cell and intermediate is at most 2 * width + 1
    row = np.repeat(np.arange(width + 1, dtype=np.min_scalar_type(2 * width + 1))[:, None],
                    len(hyps), axis=1)
    for i in range(int(hyp_len.max(initial=0))):
        cur = np.empty_like(row)
        cur[0] = i + 1
        # from the row above: a deletion (same column) or a substitution or
        # match (one column left)
        np.minimum(row[1:] + 1, row[:-1] + (hyp_ids[i] != ref_ids), out=cur[1:])
        # insertions: cur[j] = min over k <= j of cur[k] + (j - k), as a
        # prefix scan over shifts 1, 2, 4, ...
        shift = 1
        while shift <= width:
            np.minimum(cur[shift:], cur[:-shift] + shift, out=cur[shift:])
            shift *= 2
        row = cur
        done = pairs[hyp_len == i + 1]
        distances[done] = row[ref_len[done], done]
    return distances


def optimize_interpolation(
    nbest, references, network, s_bo, lambda_grid, snn_grid, unk_policy="include"
):
    """Grid-search (lambda, s_nn) minimizing total word errors on references.

    The error count is the summed edit distance (computed once per
    hypothesis) between each utterance's top-ranked hypothesis, the first of
    equal totals as in :func:`rank_hypotheses`, and its reference.  Ties prefer
    the smaller lambda, then the smaller s_nn.

    Every hypothesis is scored once, and all grid points are evaluated at
    once on (grid point, utterance, hypothesis) arrays by :func:`lm_score`,
    so the totals equal those :func:`rank_hypotheses` ranks by.  Returns
    ``(params, errors, nn_scores)``; pass `nn_scores` on to
    :func:`rank_hypotheses` to rerank without scoring again.
    """
    lambda_grid = sorted(set(float(x) for x in lambda_grid))
    snn_grid = sorted(set(float(x) for x in snn_grid))
    if not lambda_grid or not snn_grid:
        raise ValueError("empty tuning grid")
    missing = [utt for utt in nbest.utterances if utt not in references]
    if missing:
        raise ValueError(f"no reference for utterance(s): {', '.join(sorted(missing))}")
    for lam in lambda_grid:
        for s_nn in snn_grid:
            InterpolationParams(lam, s_bo, s_nn)  # rejects an invalid grid point

    nn_scores = score_hypotheses(nbest, network, unk_policy)
    (acoustic, backoff, nn), real = _score_table(nbest, nn_scores)
    hyp_errors = np.zeros(real.shape, dtype=np.int64)
    refs = [references[utt] for utt, n in zip(nbest.utterances, nbest.counts.tolist())
            for _ in range(n)]
    hyp_errors[real] = edit_distances(nbest.tokens, refs)

    lam = np.array(lambda_grid)[:, None, None, None]
    s_nn = np.array(snn_grid)[None, :, None, None]
    totals = acoustic + lm_score(backoff, nn, lam, s_bo, s_nn)
    top = totals.argmax(axis=-1)  # first of equal totals
    errors = hyp_errors[np.arange(len(real)), top].sum(axis=-1)
    li, si = np.unravel_index(errors.argmin(), errors.shape)  # first of equal counts
    best = InterpolationParams(lambda_grid[li], s_bo, snn_grid[si])
    return best, int(errors[li, si]), nn_scores
