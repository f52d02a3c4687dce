"""Word classing: class maps, bigram statistics and the exchange algorithm.

The exchange algorithm greedily moves words between classes to raise the
maximum-likelihood log-probability of a class bigram model

    P(w_t | w_{t-1}) = P(c(w_t) | c(w_{t-1})) * P(w_t | c(w_t))

evaluated on the training token stream.  The stream is closed into a cycle
(the last token is followed by the first) so that every token has exactly
one successor; class unigram counts then equal both marginals of the class
bigram table, which makes the closed-form objective below exact:

    F = sum_{c1,c2} N(c1,c2) ln N(c1,c2) - 2 sum_c N(c) ln N(c)
        + sum_w N(w) ln N(w)        with 0 ln 0 = 0.

Only the first two terms depend on the partition, but the word term is kept
so F is the actual corpus log-likelihood, comparable across class counts.

What a pass allocates besides the count tables is bounded by `BLOCK_CELLS`
cells, whatever the class count and the corpus: a visit takes its block of
class-bigram counts in column tiles, and the log-likelihood sums its table
in pieces, each with the bits of the whole.
"""

from __future__ import annotations

import itertools

import numpy as np

from .vocabulary import RESERVED, Vocabulary, index_tokens, text_lines

__all__ = [
    "BigramStats",
    "ClassMap",
    "class_bigram_loglik",
    "exchange_pass",
    "identity_classmap",
    "initialize_classes",
    "load_class_file",
    "run_exchange",
    "save_class_file",
]

# Smallest objective gain worth a move; guards against float noise in
# deltas that are exactly zero in infinite precision.
MIN_GAIN = 1e-9

# Cells of class-bigram counts that one array pass takes at most: a column
# tile of a visit's block (about 16 bytes a cell, the terms and the count
# lookups together) and a piece of the log-likelihood's table sum.
BLOCK_CELLS = 1 << 16

# numpy sums at most this many values of a contiguous run without halving it
_PAIRWISE_LEAF = 128


def _xlogx(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    np.multiply(x, np.log(x, out=np.ones_like(x), where=x > 0), out=out, where=x > 0)
    return out


class ClassMap:
    """Assignment of every vocabulary word to exactly one class.

    `class_of[w]` is the class id of word id `w` and `membership[w]` is
    P(w | c(w)); memberships sum to one within every class.
    """

    def __init__(self, class_of, membership, num_classes=None):
        self.class_of = np.asarray(class_of, dtype=np.int64)
        self.membership = np.asarray(membership, dtype=np.float64)
        if self.class_of.shape != self.membership.shape:
            raise ValueError("class_of and membership lengths differ")
        if self.class_of.size == 0:
            raise ValueError("empty class map")
        if not np.isfinite(self.membership).all():
            raise ValueError("non-finite membership probability")
        if self.class_of.min() < 0:
            raise ValueError("negative class id")
        self.num_classes = k = int(num_classes if num_classes is not None
                                   else self.class_of.max() + 1)
        if self.class_of.max() >= k:
            raise ValueError(f"class id {self.class_of[self.class_of >= k][0]} out of range")
        sizes = np.bincount(self.class_of, minlength=k)
        totals = np.bincount(self.class_of, weights=self.membership, minlength=k)
        bad = (sizes == 0) | (np.abs(totals - 1.0) > 1e-8)
        if bad.any():
            c = int(np.argmax(bad))
            if sizes[c] == 0:
                raise ValueError(f"class {c} has no members")
            raise ValueError(f"memberships of class {c} sum to {float(totals[c])!r}, not 1")
        self._by_class = np.argsort(self.class_of, kind="stable")
        self._sizes = sizes
        self._log_membership = None
        self._member_tables = None

    def __len__(self):
        return self.class_of.size

    @property
    def log_membership(self):
        if self._log_membership is None:
            m = self.membership
            out = np.full(m.shape, -np.inf)
            np.log(m, out=out, where=m > 0)
            self._log_membership = out
        return self._log_membership

    @property
    def member_tables(self):
        """``(words, starts, sizes, cumulative)``: the word ids in class
        order, the index of each class's first word in them and the class's
        size, and at each index the running sum of memberships within its
        class.  The classes of one size are summed as the rows of one
        block, each row in order from its class's first word, which gives
        the bits of one ``np.cumsum`` per class."""
        if self._member_tables is None:
            sizes = self._sizes
            starts = np.cumsum(sizes) - sizes
            m = self.membership[self._by_class]
            cumulative = np.empty_like(m)
            # not np.unique, whose first call imports numpy.ma (1.7 MB)
            for n in np.flatnonzero(np.bincount(sizes)).tolist():
                at = starts[sizes == n][:, None] + np.arange(n)
                block = m[at]
                cumulative[at] = np.cumsum(block, axis=1, out=block)
            self._member_tables = self._by_class, starts, sizes, cumulative
        return self._member_tables

    @classmethod
    def from_counts(cls, class_of, counts, num_classes=None):
        """Memberships as count-based relative frequencies within each class.

        Classes whose members never occurred get a uniform membership so the
        per-class normalization always holds.
        """
        class_of = np.asarray(class_of, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.float64)
        k = int(num_classes if num_classes is not None else class_of.max() + 1)
        totals = np.bincount(class_of, weights=counts, minlength=k)[class_of]
        sizes = np.bincount(class_of, minlength=k)[class_of]
        membership = np.divide(counts, totals, out=1.0 / sizes, where=totals > 0)
        return cls(class_of, membership, k)


def identity_classmap(vocab):
    """Every word in its own class: a plain full-vocabulary softmax."""
    n = len(vocab)
    return ClassMap(np.arange(n), np.ones(n), n)


def initialize_classes(vocab, num_classes, scheme="striped", seed=0):
    """Seed partition for the exchange algorithm.

    Reserved tokens go to singleton classes after the `num_classes` regular
    ones.  The striped scheme assigns the i-th most frequent word to class
    i mod num_classes, which guarantees no regular class is empty; the
    random scheme stripes a seeded shuffle instead.
    """
    regular = np.arange(len(RESERVED), len(vocab))  # the reserved tokens are ids 0, 1, 2
    if not 1 <= num_classes <= regular.size:
        raise ValueError(
            f"num_classes must be in [1, {regular.size}] for this vocabulary, got {num_classes}"
        )
    counts = np.asarray(vocab.counts, dtype=np.int64)
    # frequency-descending, ties by word id
    order = regular[np.argsort(-counts[regular], kind="stable")]
    if scheme == "random":
        rng = np.random.default_rng(seed)
        order = order[rng.permutation(order.size)]
    elif scheme != "striped":
        raise ValueError(f"unknown initialization scheme {scheme!r}")

    class_of = np.empty(len(vocab), dtype=np.int64)
    class_of[order] = np.arange(order.size) % num_classes
    class_of[: len(RESERVED)] = num_classes + np.arange(len(RESERVED))
    return ClassMap.from_counts(class_of, counts, num_classes + len(RESERVED))


class BigramStats:
    """Sufficient statistics of the circular token stream for exchange moves.

    Holds word unigram counts, per-word successor/predecessor lists in CSR
    form (self loops apart) and the class-level unigram/bigram count tables
    for the current partition.  The bigram table and its transpose are the
    two halves of one array, so that the rows of one and the columns of the
    other come out of one row gather.  Class counts are updated
    incrementally as words move.  All counts are integers, so x ln x is a
    lookup into `xlogx`, the table of n ln n for n = 0..N.
    """

    def __init__(self, stream, classmap, movable_classes=None):
        stream = np.asarray(stream, dtype=np.int64)
        if stream.size == 0:
            raise ValueError("empty token stream")
        if stream.size >= 2**31:
            raise ValueError("token stream too long for 32-bit count tables")
        n_words = classmap.class_of.size
        if stream.min() < 0 or stream.max() >= n_words:
            raise ValueError("stream id outside the class map")
        self.word_counts = np.bincount(stream, minlength=n_words)
        self.xlogx = _xlogx(np.arange(stream.size + 1))

        # Distinct circular pairs (the last token precedes the first),
        # sorted by predecessor then successor.
        nxt = np.roll(stream, -1)
        pairs, pair_counts = np.unique(stream * n_words + nxt, return_counts=True)
        src, dst = np.divmod(pairs, n_words)

        self.class_of = classmap.class_of.copy()
        self.num_classes = k = classmap.num_classes
        self.class_sizes = np.bincount(self.class_of, minlength=k)
        self.class_counts = np.bincount(self.class_of, weights=self.word_counts,
                                        minlength=k).astype(np.int64)
        # the class cells of the word pairs, self loops included, counted
        cells, inverse = np.unique(self.class_of[src] * k + self.class_of[dst],
                                   return_inverse=True)
        cell_counts = np.bincount(inverse, weights=pair_counts).astype(np.int32)
        row, col = np.divmod(cells, k)
        # rows 0..k-1 hold the table, rows k..2k-1 its transpose
        self._tables = np.zeros((2 * k, k), dtype=np.int32)
        self.class_bigrams = self._tables[:k]
        self.class_bigrams_t = self._tables[k:]
        self.class_bigrams[row, col] = cell_counts
        self.class_bigrams_t[col, row] = cell_counts
        self._diag = np.diagonal(self.class_bigrams)

        loop = src == dst
        self.self_loops = np.zeros(n_words, dtype=np.int64)
        self.self_loops[src[loop]] = pair_counts[loop]
        src, dst, pair_counts = src[~loop], dst[~loop], pair_counts[~loop]
        rows = np.arange(n_words + 1)
        self.succ_ptr = np.searchsorted(src, rows)
        self.succ_ids, self.succ_counts = dst, pair_counts
        # the pairs are distinct, so sorting dst * n_words + src orders them
        # by successor, then predecessor
        by_dst = np.argsort(dst * n_words + src)
        self.pred_ptr = np.searchsorted(dst[by_dst], rows)
        self.pred_ids, self.pred_counts = src[by_dst], pair_counts[by_dst]
        if movable_classes is None:
            movable_classes = np.arange(k)
        self.movable_classes = np.asarray(movable_classes, dtype=np.int64)
        self._fixed = np.ones(k, dtype=bool)
        self._fixed[self.movable_classes] = False
        self._visit = None, None

    def _transition_mass(self, w):
        """Per-class successor/predecessor masses of `w`, minus self loops,
        the classes where each is nonzero, and the self-loop count.

        Kept for the `apply_move` that follows `move_deltas(w)`: they depend
        only on the classes of the neighbours of `w`, so only the move of
        another word, which asks for its own, can change them.
        """
        if self._visit[0] == w:
            return self._visit[1]
        k = self.num_classes
        lo, hi = self.succ_ptr[w], self.succ_ptr[w + 1]
        s = np.bincount(self.class_of[self.succ_ids[lo:hi]],
                        weights=self.succ_counts[lo:hi], minlength=k).astype(np.int64)
        lo, hi = self.pred_ptr[w], self.pred_ptr[w + 1]
        p = np.bincount(self.class_of[self.pred_ids[lo:hi]],
                        weights=self.pred_counts[lo:hi], minlength=k).astype(np.int64)
        masses = s, p, (s != 0).nonzero()[0], (p != 0).nonzero()[0], int(self.self_loops[w])
        self._visit = w, masses
        return masses

    def move_deltas(self, w):
        """Objective change for moving `w` into every class (its own = -inf).

        Evaluated from the count tables alone: a few class-length vectors
        and one table row per neighbour class of `w`, with x ln x looked up
        only at the nonzero cells of those rows.
        """
        f = self.xlogx
        a = int(self.class_of[w])
        k = self.num_classes
        s, p, ds, dp, self_count = self._transition_mass(w)
        nw = int(self.word_counts[w])
        bg = self.class_bigrams
        row_a = bg[a, :]
        col_a = self.class_bigrams_t[a, :]
        if s[a]:
            ds = ds[ds != a]
        if p[a]:
            dp = dp[dp != a]
        s_d, p_d = s[ds], p[dp]
        diag = self._diag
        diag_s, diag_p = diag[ds], diag[dp]

        # Removing w's transitions from class a's row/column, for cells d
        # outside {a, b}; the b cell is excluded per candidate below.  Only
        # cells with transition mass change: elsewhere the term is
        # f[n] - f[n] = 0.
        rem_s = np.zeros(k)
        n = row_a[ds]
        rem_s[ds] = f[n - s_d] - f[n]
        rem_p = np.zeros(k)
        n = col_a[dp]
        rem_p[dp] = f[n - p_d] - f[n]
        rem_total = rem_s.sum() + rem_p.sum()

        # Adding w's transitions to candidate b's row/column, cells d with
        # transition mass, d outside {a, b}: row d of the transposed table
        # is column d of the table, so both blocks come from one row gather.
        # A term is f[n + m] - f[n], which at an empty cell is f[m] - 0.0 =
        # f[m]; each row starts out as f[m], and x ln x is looked up only at
        # the nonzero cells (a few percent when classes are many).  Summing
        # a C-ordered |d| x width tile over axis 0 adds the d terms of each
        # candidate one after another; class files depend on that order,
        # because another one rounds differently and can change which move
        # wins a near tie.  The block is taken in column tiles of at most
        # BLOCK_CELLS cells, each at least two columns wide: numpy sums a
        # lone column pairwise, not row by row.
        rows = np.concatenate((ds + k, dp))
        mass = np.concatenate((s_d, p_d))
        f_mass = f[mass][:, None]
        ins_s, ins_p = np.empty(k), np.empty(k)
        bounds = _column_tiles(rows.size, k)
        for lo, hi in zip(bounds, bounds[1:]):
            block = self._tables[rows, lo:hi]
            terms = np.empty(block.shape)
            terms[:] = f_mass
            cells = (block != 0).ravel().nonzero()[0]
            n = block.ravel()[cells].astype(np.int64)  # numpy looks up by int64 faster
            looked_up = f[n + mass[cells // (hi - lo)]]
            looked_up -= f[n]
            terms.ravel()[cells] = looked_up
            terms[:ds.size].sum(axis=0, out=ins_s[lo:hi])
            terms[ds.size:].sum(axis=0, out=ins_p[lo:hi])
        ins_s[ds] -= (f[diag_s + s_d] - f[diag_s])
        ins_p[dp] -= (f[diag_p + p_d] - f[diag_p])

        # The four cells coupling a and b change by fixed combinations of
        # the masses; handled exactly here, excluded from the bulk terms.
        # Outside the neighbour classes each is f[n] - f[n] = 0, unless a
        # mass at a or the self loop shifts every cell; with p[a] = 0 the
        # ab term is the removal term rem_s, with s[a] = 0 the ba term is
        # rem_p.  The entry at b = a is -inf in the end, so it is left out
        # (there the counts below are not counts of any partition and may
        # exceed N).
        corner_aa = f[bg[a, a] - s[a] - p[a] - self_count] - f[bg[a, a]]
        if self_count:
            bb = diag + s + p + self_count
            bb[a] = 0
            corner_bb = f[bb] - f[diag]
        else:
            corner_bb = np.zeros(k)
            corner_bb[ds] = f[diag_s + s_d + p[ds]] - f[diag_s]
            corner_bb[dp] = f[diag_p + s[dp] + p_d] - f[diag_p]
        corner_ab = f[row_a - s + p[a]] - f[row_a] if p[a] else rem_s
        corner_ba = f[col_a + s[a] - p] - f[col_a] if s[a] else rem_p

        # added from the left, in the order that every class file depends on
        pair_delta = rem_total - rem_s
        pair_delta -= rem_p
        pair_delta += ins_s
        pair_delta += ins_p
        pair_delta += corner_aa
        pair_delta += corner_bb
        pair_delta += corner_ab
        pair_delta += corner_ba
        cc = self.class_counts
        grown = cc + nw
        grown[a] = 0
        uni_delta = -2.0 * (f[cc[a] - nw] - f[cc[a]] + f[grown] - f[cc])
        deltas = pair_delta + uni_delta
        deltas[a] = -np.inf
        deltas[self._fixed] = -np.inf
        return deltas

    def apply_move(self, w, b):
        """Move `w` to class `b`, updating all class tables incrementally.

        Rows and columns a and b change only at the neighbour classes of `w`
        (and at the self loop's cells).
        """
        a = int(self.class_of[w])
        if a == b:
            return
        s, p, ds, dp, self_count = self._transition_mass(w)
        s_d, p_d = s[ds], p[dp]
        for bg, cols, col_mass, rows, row_mass in (
                (self.class_bigrams, ds, s_d, dp, p_d), (self.class_bigrams_t, dp, p_d, ds, s_d)):
            bg[a, cols] -= col_mass
            bg[rows, a] -= row_mass
            bg[b, cols] += col_mass
            bg[rows, b] += row_mass
            bg[a, a] -= self_count
            bg[b, b] += self_count
        nw = self.word_counts[w]
        self.class_counts[a] -= nw
        self.class_counts[b] += nw
        self.class_sizes[a] -= 1
        self.class_sizes[b] += 1
        self.class_of[w] = b


def _column_tiles(rows, k):
    """Bounds of the column tiles of a `rows` x `k` block: as few evenly
    spaced tiles as keep each within BLOCK_CELLS cells, none narrower than
    two columns (at that floor, an odd `k` leaves one of three)."""
    width = max(2, BLOCK_CELLS // max(rows, 1))
    tiles = max(1, min(-(-k // width), k // 2))
    return [k * i // tiles for i in range(tiles + 1)]


def _table_sum(f, table):
    """``f[table].sum()`` bitwise, in pieces of at most BLOCK_CELLS cells.

    numpy sums a contiguous array pairwise: a run of more than
    `_PAIRWISE_LEAF` values is summed as its first half, rounded down to a
    multiple of 8, plus the rest.  Splitting the same way down to pieces
    that fit the budget, and summing each piece with numpy, adds every
    value in numpy's order."""
    cells = table.reshape(-1)

    def pairwise(lo, hi):
        if hi - lo <= max(BLOCK_CELLS, _PAIRWISE_LEAF):
            return f[cells[lo:hi]].sum()
        half = (hi - lo) // 2
        half -= half % 8
        return pairwise(lo, lo + half) + pairwise(lo + half, hi)

    return pairwise(0, cells.size)


def class_bigram_loglik(stats):
    """Closed-form training log-likelihood of the class bigram model."""
    f = stats.xlogx
    return float(
        _table_sum(f, stats.class_bigrams)
        - 2.0 * f[stats.class_counts].sum()
        + f[stats.word_counts].sum()
    )


def exchange_pass(stats, reserved_ids=()):
    """One sweep: visit every movable word once, frequency-descending.

    Applies the best strictly-positive move per word (never emptying a
    class) and returns ``(improved, total_delta)``.
    """
    reserved = set(int(r) for r in reserved_ids)
    counted = [w for w in range(stats.word_counts.size)
               if w not in reserved and stats.word_counts[w] > 0]
    order = sorted(counted, key=lambda w: (-stats.word_counts[w], w))
    total = 0.0
    for w in order:
        a = int(stats.class_of[w])
        if stats.class_sizes[a] <= 1:
            continue
        deltas = stats.move_deltas(w)
        b = int(np.argmax(deltas))
        if deltas[b] > MIN_GAIN:
            stats.apply_move(w, b)
            total += float(deltas[b])
    return total > 0.0, total


def run_exchange(sentences, num_classes, scheme="striped", seed=0, max_passes=50):
    """Cluster a corpus into word classes.

    The sentences are one unframed circular token stream: they are joined
    end to end, with no sentence boundary tokens, and the last token
    precedes the first, so ``[tokens]`` and the same tokens split into
    sentences, or into the pieces of `read_token_pieces`, give the same
    classes.  The vocabulary and the stream of ids come from one
    `index_tokens` pass, which reads `sentences` once, a piece at a time,
    and the statistics from counting the stream's distinct word pairs.

    Returns ``(vocab, classmap, trace)`` where `trace` holds the objective
    after initialization and after each pass; it is non-decreasing.
    """
    if max_passes < 0:
        raise ValueError(f"max_passes must be non-negative, got {max_passes}")
    vocab, stream = index_tokens(itertools.chain.from_iterable(sentences))
    init = initialize_classes(vocab, num_classes, scheme=scheme, seed=seed)
    reserved_ids = [vocab.ids[tok] for tok in RESERVED]
    stats = BigramStats(stream, init, movable_classes=np.arange(num_classes))
    trace = [class_bigram_loglik(stats)]
    for _ in range(max_passes):
        improved, _delta = exchange_pass(stats, reserved_ids)
        trace.append(class_bigram_loglik(stats))
        if not improved:
            break
    classmap = ClassMap.from_counts(stats.class_of, stats.word_counts, stats.num_classes)
    return vocab, classmap, trace


def save_class_file(path, vocab, classmap):
    """Write ``word<TAB>class_id<TAB>membership`` sorted by class, then
    descending membership (word id breaks ties)."""
    class_of, membership = classmap.class_of, classmap.membership
    rows = np.lexsort((np.arange(len(vocab)), -membership, class_of))
    with open(path, "w", encoding="utf-8") as f:
        for w in rows.tolist():
            prob = float(membership[w])
            f.write(f"{vocab.words[w]}\t{int(class_of[w])}\t{prob!r}\n")


def load_class_file(path):
    """Read a class file; returns ``(vocab, classmap)``.

    The file defines the model vocabulary.  Missing reserved tokens are
    appended in singleton classes.  Memberships are renormalized per class
    and must already sum to 1 within 1e-6.
    """
    words = []
    assignments = []
    probs = []
    seen = {}
    for line_no, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {line_no}: expected word<TAB>class<TAB>prob")
        word, raw_class, raw_prob = parts
        if word in seen:
            raise ValueError(f"{path}: line {line_no}: duplicate word {word!r}")
        try:
            class_id = int(raw_class)
            prob = float(raw_prob)
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: bad class id or probability")
        if class_id < 0 or not 0.0 <= prob <= 1.0 + 1e-9:
            raise ValueError(f"{path}: line {line_no}: class id or probability out of range")
        seen[word] = line_no
        words.append(word)
        assignments.append(class_id)
        probs.append(prob)
    if not words:
        raise ValueError(f"{path}: no class entries")

    # classes are non-empty: an id beyond the file's word count is refused
    # before anything is allocated per class
    num_classes = max(assignments) + 1
    if num_classes > len(words):
        line_no = seen[words[assignments.index(num_classes - 1)]]
        raise ValueError(f"{path}: line {line_no}: class id {num_classes - 1} is out of"
                         f" range: {len(words)} words leave some of {num_classes} classes"
                         " with no members")
    vocab = Vocabulary([w for w in words if w not in RESERVED])
    ids = np.fromiter(map(vocab.ids.__getitem__, words), dtype=np.int64, count=len(words))
    class_of = np.zeros(len(vocab), dtype=np.int64)
    membership = np.zeros(len(vocab))
    class_of[ids] = assignments
    membership[ids] = probs
    for tok in RESERVED:
        if tok not in seen:
            class_of[vocab.ids[tok]] = num_classes
            membership[vocab.ids[tok]] = 1.0
            num_classes += 1

    # one sort lays out each class's members in id order; each sum is the
    # np.sum of that class's memberships, so it rounds as a sum over them
    present = np.bincount(class_of, minlength=num_classes)
    starts = (np.cumsum(present) - present).tolist()
    grouped = membership[np.argsort(class_of, kind="stable")]
    totals = np.empty(num_classes)
    for c, (start, n) in enumerate(zip(starts, present.tolist())):
        if n == 0:
            raise ValueError(f"{path}: class {c} has no members")
        total = grouped[start:start + n].sum()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"{path}: memberships of class {c} sum to {total}, not 1")
        totals[c] = total
    return vocab, ClassMap(class_of, membership / totals[class_of], num_classes)
