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
        self.num_classes = int(num_classes if num_classes is not None else self.class_of.max() + 1)
        self.members = [[] for _ in range(self.num_classes)]
        for w, c in enumerate(self.class_of):
            if c >= self.num_classes:
                raise ValueError(f"class id {c} out of range")
            self.members[c].append(w)
        for c, ms in enumerate(self.members):
            if not ms:
                raise ValueError(f"class {c} has no members")
            total = float(self.membership[ms].sum())
            if abs(total - 1.0) > 1e-8:
                raise ValueError(f"memberships of class {c} sum to {total!r}, not 1")
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
        totals = np.bincount(class_of, weights=counts, minlength=k)
        sizes = np.bincount(class_of, minlength=k)
        membership = np.empty_like(counts)
        for w, c in enumerate(class_of):
            membership[w] = counts[w] / totals[c] if totals[c] > 0 else 1.0 / sizes[c]
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

    Holds word unigram counts, per-word successor/predecessor count maps and
    the class-level unigram/bigram count tables for the current partition.
    Class counts are updated incrementally as words move.
    """

    def __init__(self, stream, classmap, movable_classes=None):
        stream = np.asarray(stream, dtype=np.int64)
        if stream.size == 0:
            raise ValueError("empty token stream")
        n_words = classmap.class_of.size
        if stream.min() < 0 or stream.max() >= n_words:
            raise ValueError("stream id outside the class map")
        self.word_counts = np.bincount(stream, minlength=n_words).astype(np.float64)
        self.succ = [dict() for _ in range(n_words)]
        self.pred = [dict() for _ in range(n_words)]
        nxt = np.roll(stream, -1)  # circular: last token precedes the first
        for a, b in zip(stream.tolist(), nxt.tolist()):
            self.succ[a][b] = self.succ[a].get(b, 0) + 1
            self.pred[b][a] = self.pred[b].get(a, 0) + 1

        self.class_of = classmap.class_of.copy()
        self.num_classes = classmap.num_classes
        self.class_sizes = np.bincount(self.class_of, minlength=self.num_classes)
        self.class_counts = np.bincount(
            self.class_of, weights=self.word_counts, minlength=self.num_classes
        )
        k = self.num_classes
        self.class_bigrams = np.zeros((k, k), dtype=np.float64)
        np.add.at(self.class_bigrams, (self.class_of[stream], self.class_of[nxt]), 1.0)
        if movable_classes is None:
            movable_classes = np.arange(k)
        self.movable_classes = np.asarray(movable_classes, dtype=np.int64)
        self._movable_mask = np.zeros(k, dtype=bool)
        self._movable_mask[self.movable_classes] = True

    def check_consistency(self):
        """Verify the class bigram marginals against the unigram counts."""
        row = self.class_bigrams.sum(axis=1)
        col = self.class_bigrams.sum(axis=0)
        if not (np.array_equal(row, self.class_counts) and np.array_equal(col, self.class_counts)):
            raise ValueError("class bigram marginals do not match class counts")

    def _transition_mass(self, w):
        """Per-class successor/predecessor masses of `w`, minus self loops."""
        k = self.num_classes
        s = np.zeros(k)
        p = np.zeros(k)
        for v, cnt in self.succ[w].items():
            if v != w:
                s[self.class_of[v]] += cnt
        for v, cnt in self.pred[w].items():
            if v != w:
                p[self.class_of[v]] += cnt
        return s, p, float(self.succ[w].get(w, 0))

    def move_deltas(self, w):
        """Objective change for moving `w` into every class (its own = -inf).

        Evaluated from the count tables alone, in O(classes x distinct
        neighbour classes of `w`); no recount of the corpus.
        """
        f = _xlogx
        a = int(self.class_of[w])
        k = self.num_classes
        s, p, self_count = self._transition_mass(w)
        nw = self.word_counts[w]
        bg = self.class_bigrams
        row_a = bg[a, :].copy()
        col_a = bg[:, a].copy()

        # Removing w's transitions from class a's row/column, for cells d
        # outside {a, b}; the b cell is excluded per candidate below.
        rem_s = f(row_a - s) - f(row_a)
        rem_p = f(col_a - p) - f(col_a)
        rem_s[a] = 0.0
        rem_p[a] = 0.0
        rem_total = rem_s.sum() + rem_p.sum()

        # Adding w's transitions to candidate b's row/column, cells d with
        # transition mass, d outside {a, b}.
        ins_s = np.zeros(k)
        ds = np.nonzero(s)[0]
        ds = ds[ds != a]
        if ds.size:
            block = bg[:, ds]
            ins_s = (f(block + s[ds]) - f(block)).sum(axis=1)
            ins_s[ds] -= (f(bg[ds, ds] + s[ds]) - f(bg[ds, ds]))
        ins_p = np.zeros(k)
        dp = np.nonzero(p)[0]
        dp = dp[dp != a]
        if dp.size:
            block = bg[dp, :]
            ins_p = (f(block + p[dp][:, None]) - f(block)).sum(axis=0)
            ins_p[dp] -= (f(bg[dp, dp] + p[dp]) - f(bg[dp, dp]))

        # The four cells coupling a and b change by fixed combinations of
        # the masses; handled exactly here, excluded from the bulk terms.
        diag = np.diagonal(bg)
        corner_aa = float(f(bg[a, a] - s[a] - p[a] - self_count) - f(bg[a, a]))
        corner_bb = f(diag + s + p + self_count) - f(diag)
        corner_ab = f(row_a - s + p[a]) - f(row_a)
        corner_ba = f(col_a + s[a] - p) - f(col_a)

        pair_delta = (
            rem_total - rem_s - rem_p + ins_s + ins_p
            + corner_aa + corner_bb + corner_ab + corner_ba
        )
        cc = self.class_counts
        uni_delta = -2.0 * (
            float(f(cc[a] - nw) - f(cc[a])) + f(cc + nw) - f(cc)
        )
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
        bg = self.class_bigrams
        bg[a, :] -= s
        bg[:, a] -= p
        bg[b, :] += s
        bg[:, b] += p
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
    return float(
        _xlogx(stats.class_bigrams).sum()
        - 2.0 * _xlogx(stats.class_counts).sum()
        + _xlogx(stats.word_counts).sum()
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


def run_exchange(sentences, num_classes, scheme="striped", seed=0, max_passes=50, vocab=None):
    """Cluster a corpus into word classes.

    Returns ``(vocab, classmap, trace)`` where `trace` holds the objective
    after initialization and after each pass; it is non-decreasing.
    """
    sentences = [list(s) for s in sentences]
    if vocab is None:
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

    order = {w: i for i, w in enumerate(words)}
    vocab = Vocabulary([w for w in words if w not in RESERVED])
    num_classes = max(assignments) + 1
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
