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
"""

from __future__ import annotations

import numpy as np

from .vocabulary import RESERVED, Vocabulary, build_vocabulary

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
        by_class = np.argsort(self.class_of, kind="stable").tolist()
        ends = np.cumsum(sizes).tolist()
        self.members = [by_class[i - n:i] for i, n in zip(ends, sizes.tolist())]
        self._log_membership = None

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
    regular = [w for w in range(len(vocab)) if vocab.words[w] not in RESERVED]
    if not 1 <= num_classes <= len(regular):
        raise ValueError(
            f"num_classes must be in [1, {len(regular)}] for this vocabulary, got {num_classes}"
        )
    order = sorted(regular, key=lambda w: (-vocab.counts[w], w))
    if scheme == "random":
        rng = np.random.default_rng(seed)
        order = [order[i] for i in rng.permutation(len(order))]
    elif scheme != "striped":
        raise ValueError(f"unknown initialization scheme {scheme!r}")

    class_of = np.empty(len(vocab), dtype=np.int64)
    for rank, w in enumerate(order):
        class_of[w] = rank % num_classes
    for offset, tok in enumerate(RESERVED):
        class_of[vocab.ids[tok]] = num_classes + offset
    return ClassMap.from_counts(class_of, vocab.counts, num_classes + len(RESERVED))


class BigramStats:
    """Sufficient statistics of the circular token stream for exchange moves.

    Holds word unigram counts, per-word successor/predecessor lists in CSR
    form (self loops apart) and the class-level unigram/bigram count tables
    for the current partition, the bigram table also transposed so that a
    block of its columns is a contiguous row gather.  Class counts are
    updated incrementally as words move.  All counts are integers, so
    x ln x is a lookup into `xlogx`, the table of n ln n for n = 0..N.
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
        pairs, counts = np.unique(stream * n_words + nxt, return_counts=True)
        src, dst = np.divmod(pairs, n_words)
        loop = src == dst
        self.self_loops = np.zeros(n_words, dtype=np.int64)
        self.self_loops[src[loop]] = counts[loop]
        src, dst, counts = src[~loop], dst[~loop], counts[~loop]
        rows = np.arange(n_words + 1)
        self.succ_ptr = np.searchsorted(src, rows)
        self.succ_ids, self.succ_counts = dst, counts
        by_dst = np.lexsort((src, dst))
        self.pred_ptr = np.searchsorted(dst[by_dst], rows)
        self.pred_ids, self.pred_counts = src[by_dst], counts[by_dst]

        self.class_of = classmap.class_of.copy()
        self.num_classes = k = classmap.num_classes
        self.class_sizes = np.bincount(self.class_of, minlength=k)
        classes = self.class_of[stream]
        self.class_counts = np.bincount(classes, minlength=k)
        cells, cell_counts = np.unique(classes * k + np.roll(classes, -1), return_counts=True)
        self.class_bigrams = np.zeros((k, k), dtype=np.int32)
        self.class_bigrams.flat[cells] = cell_counts
        self.class_bigrams_t = np.ascontiguousarray(self.class_bigrams.T)
        if movable_classes is None:
            movable_classes = np.arange(k)
        self.movable_classes = np.asarray(movable_classes, dtype=np.int64)
        self._movable_mask = np.zeros(k, dtype=bool)
        self._movable_mask[self.movable_classes] = True

    def check_consistency(self):
        """Verify the class bigram marginals against the unigram counts and
        the transposed table against the table."""
        row = self.class_bigrams.sum(axis=1)
        col = self.class_bigrams.sum(axis=0)
        if not (np.array_equal(row, self.class_counts) and np.array_equal(col, self.class_counts)
                and np.array_equal(self.class_bigrams_t, self.class_bigrams.T)):
            raise ValueError("class bigram tables do not match each other or the class counts")

    def _transition_mass(self, w):
        """Per-class successor/predecessor masses of `w`, minus self loops."""
        k = self.num_classes
        lo, hi = self.succ_ptr[w], self.succ_ptr[w + 1]
        s = np.bincount(self.class_of[self.succ_ids[lo:hi]],
                        weights=self.succ_counts[lo:hi], minlength=k)
        lo, hi = self.pred_ptr[w], self.pred_ptr[w + 1]
        p = np.bincount(self.class_of[self.pred_ids[lo:hi]],
                        weights=self.pred_counts[lo:hi], minlength=k)
        return s.astype(np.int64), p.astype(np.int64), int(self.self_loops[w])

    def move_deltas(self, w):
        """Objective change for moving `w` into every class (its own = -inf).

        Evaluated from the count tables alone, in O(classes x distinct
        neighbour classes of `w`) table lookups; no recount of the corpus.
        """
        f = self.xlogx
        a = int(self.class_of[w])
        k = self.num_classes
        s, p, self_count = self._transition_mass(w)
        nw = int(self.word_counts[w])
        bg = self.class_bigrams
        row_a = bg[a, :]
        col_a = self.class_bigrams_t[a, :]
        f_row_a = f[row_a]
        f_col_a = f[col_a]

        # Removing w's transitions from class a's row/column, for cells d
        # outside {a, b}; the b cell is excluded per candidate below.
        rem_s = f[row_a - s] - f_row_a
        rem_p = f[col_a - p] - f_col_a
        rem_s[a] = 0.0
        rem_p[a] = 0.0
        rem_total = rem_s.sum() + rem_p.sum()

        # Adding w's transitions to candidate b's row/column, cells d with
        # transition mass, d outside {a, b}.  Summing a C-ordered |d| x K
        # block over axis 0 adds the d terms of each candidate one after
        # another; class files depend on that order, because another one
        # rounds differently and can change which move wins a near tie.
        # Blocks are widened to int64, by which numpy gathers about three
        # times faster than by int32.
        ins_s = np.zeros(k)
        ds = np.nonzero(s)[0]
        ds = ds[ds != a]
        if ds.size:
            block = self.class_bigrams_t[ds, :].astype(np.int64)
            ins_s = (f[block + s[ds][:, None]] - f[block]).sum(axis=0)
            ins_s[ds] -= (f[bg[ds, ds] + s[ds]] - f[bg[ds, ds]])
        ins_p = np.zeros(k)
        dp = np.nonzero(p)[0]
        dp = dp[dp != a]
        if dp.size:
            block = bg[dp, :].astype(np.int64)
            ins_p = (f[block + p[dp][:, None]] - f[block]).sum(axis=0)
            ins_p[dp] -= (f[bg[dp, dp] + p[dp]] - f[bg[dp, dp]])

        # The four cells coupling a and b change by fixed combinations of
        # the masses; handled exactly here, excluded from the bulk terms.
        # At b = a the bb and unigram counts below are not counts of any
        # partition (they may exceed N); that entry is -inf in the end, so
        # it is looked up at 0.
        diag = np.diagonal(bg)
        corner_aa = f[bg[a, a] - s[a] - p[a] - self_count] - f[bg[a, a]]
        bb = diag + s + p + self_count
        bb[a] = 0
        corner_bb = f[bb] - f[diag]
        corner_ab = f[row_a - s + p[a]] - f_row_a
        corner_ba = f[col_a + s[a] - p] - f_col_a

        pair_delta = (
            rem_total - rem_s - rem_p + ins_s + ins_p
            + corner_aa + corner_bb + corner_ab + corner_ba
        )
        cc = self.class_counts
        grown = cc + nw
        grown[a] = 0
        uni_delta = -2.0 * (f[cc[a] - nw] - f[cc[a]] + f[grown] - f[cc])
        deltas = pair_delta + uni_delta
        deltas[a] = -np.inf
        deltas[~self._movable_mask] = -np.inf
        return deltas

    def apply_move(self, w, b):
        """Move `w` to class `b`, updating all class tables incrementally."""
        a = int(self.class_of[w])
        if a == b:
            return
        s, p, self_count = self._transition_mass(w)
        for bg, row_mass, col_mass in ((self.class_bigrams, s, p), (self.class_bigrams_t, p, s)):
            bg[a, :] -= row_mass
            bg[:, a] -= col_mass
            bg[b, :] += row_mass
            bg[:, b] += col_mass
            bg[a, a] -= self_count
            bg[b, b] += self_count
        nw = self.word_counts[w]
        self.class_counts[a] -= nw
        self.class_counts[b] += nw
        self.class_sizes[a] -= 1
        self.class_sizes[b] += 1
        self.class_of[w] = b


def class_bigram_loglik(stats):
    """Closed-form training log-likelihood of the class bigram model."""
    f = stats.xlogx
    return float(
        f[stats.class_bigrams].sum()
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

    Returns ``(vocab, classmap, trace)`` where `trace` holds the objective
    after initialization and after each pass; it is non-decreasing.
    """
    if max_passes < 0:
        raise ValueError(f"max_passes must be non-negative, got {max_passes}")
    sentences = [list(s) for s in sentences]
    vocab = build_vocabulary(sentences)
    init = initialize_classes(vocab, num_classes, scheme=scheme, seed=seed)
    stream = [vocab.id_of(tok) for sent in sentences for tok in sent]
    if not stream:
        raise ValueError("empty corpus")
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
    rows = sorted(
        range(len(vocab)),
        key=lambda w: (int(classmap.class_of[w]), -classmap.membership[w], w),
    )
    with open(path, "w", encoding="utf-8") as f:
        for w in rows:
            prob = float(classmap.membership[w])
            f.write(f"{vocab.words[w]}\t{int(classmap.class_of[w])}\t{prob!r}\n")


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
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
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
    order = {w: i for i, w in enumerate(words)}
    vocab = Vocabulary([w for w in words if w not in RESERVED])
    class_of = np.zeros(len(vocab), dtype=np.int64)
    membership = np.zeros(len(vocab))
    for word, class_id, prob in zip(words, assignments, probs):
        class_of[vocab.ids[word]] = class_id
        membership[vocab.ids[word]] = prob
    for tok in RESERVED:
        if tok not in order:
            class_of[vocab.ids[tok]] = num_classes
            membership[vocab.ids[tok]] = 1.0
            num_classes += 1

    present = np.bincount(class_of, minlength=num_classes)
    for c, n in enumerate(present):
        if n == 0:
            raise ValueError(f"{path}: class {c} has no members")
        ms = np.nonzero(class_of == c)[0]
        total = membership[ms].sum()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"{path}: memberships of class {c} sum to {total}, not 1")
        membership[ms] /= total
    return vocab, ClassMap(class_of, membership, num_classes)
