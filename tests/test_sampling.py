"""Determinism and distribution of sampled text."""

import numpy as np
import pytest

import classlm as cl
from classlm.graph import ROW_BLOCK
from classlm.sampling import _pick_classes, _pick_members
from classlm.scoring import step_rows

import support


class FixedDraw:
    """A stand-in generator whose ``random()`` returns one given value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _draw(rng, cumulative):
    r = rng.random() * cumulative[-1]
    return min(int(np.searchsorted(cumulative, r, side="right")), len(cumulative) - 1)


def sample_per_row(net, seed, max_tokens, count):
    """Reference sampler: all sentences step together, and each row draws its
    class, then its word when the class has several members, by one
    ``rng.random()`` call and one ``searchsorted`` at a time."""
    classes, vocab = net.classes, net.vocab
    member_ids = [np.asarray(ms, dtype=np.int64) for ms in support.class_members(classes)]
    member_cum = [np.cumsum(classes.membership[ids]) for ids in member_ids]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]
    sentences = [[] for _ in range(count)]
    live = list(range(count))
    rows = np.zeros(count, dtype=np.int64)
    words = np.full(count, vocab.start_id, dtype=np.int64)
    state = net.initial_state(1)
    for _ in range(max_tokens):
        if not live:
            break
        probs, state = step_rows(net, state, rows, words)
        cumulative = np.cumsum(probs, axis=1)
        kept, drawn = [], []
        for row, i in enumerate(live):
            c = _draw(rngs[i], cumulative[row])
            members = member_ids[c]
            word = int(members[0] if members.size == 1
                       else members[_draw(rngs[i], member_cum[c])])
            if word != vocab.end_id:
                sentences[i].append(support.word_of(vocab, word))
                kept.append(row)
                drawn.append(word)
        live = [live[row] for row in kept]
        rows = np.asarray(kept, dtype=np.int64)
        words = np.asarray(drawn, dtype=np.int64)
    return sentences


def sample_one_at_a_time(net, seed, max_tokens, count):
    """Reference sampler: one sentence after another, each from its own
    stream, every step on ROW_BLOCK copies of the sentence's one row."""
    vocab, classes = net.vocab, net.classes
    groups = support.class_members(classes)
    sentences = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        state = net.initial_state(ROW_BLOCK)
        word, tokens = vocab.start_id, []
        while len(tokens) < max_tokens:
            probs, state = net.step(state, np.full(ROW_BLOCK, word))
            members = groups[_draw(rng, np.cumsum(probs[0]))]
            if len(members) > 1:
                members = [members[_draw(rng, np.cumsum(classes.membership[members]))]]
            word = members[0]
            if word == vocab.end_id:
                break
            tokens.append(support.word_of(vocab, word))
        sentences.append(tokens)
    return sentences


def test_same_seed_gives_identical_output(rng):
    net = support.random_class_network(rng, vocab_size=10, num_classes=4)
    a = cl.sample_text(net, seed=42, max_tokens=12, count=5)
    b = cl.sample_text(net, seed=42, max_tokens=12, count=5)
    assert a == b
    c = cl.sample_text(net, seed=43, max_tokens=12, count=5)
    assert a != c


def test_max_tokens_zero_gives_empty_sentences(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    assert cl.sample_text(net, seed=1, max_tokens=0, count=3) == [[], [], []]


def test_count_zero_gives_no_sentences(rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    assert cl.sample_text(net, seed=1, max_tokens=5, count=0) == []


def test_sentences_respect_max_tokens(rng):
    net = support.random_class_network(rng, vocab_size=10, num_classes=4)
    for tokens in cl.sample_text(net, seed=3, max_tokens=4, count=20):
        assert len(tokens) <= 4
        assert "</s>" not in tokens


def test_trained_toy_model_samples_its_training_sentence(toy_model):
    sentences = cl.sample_text(toy_model, seed=5, max_tokens=10, count=200)
    matches = sum(tokens == ["a", "b", "c", "d"] for tokens in sentences)
    assert matches / len(sentences) > 0.9


def test_samples_follow_the_model_distribution():
    # a hand-built single-step distribution: membership 0.75 / 0.25 inside
    # one two-word class; the sampled word frequencies must match
    words = ["x", "y"]
    vocab = cl.Vocabulary(words, {"x": 3, "y": 1})
    class_of = np.array([1, 2, 3, 0, 0])  # x, y share class 0
    membership = np.array([1.0, 1.0, 1.0, 0.75, 0.25])
    classes = cl.ClassMap(class_of, membership, 4)
    desc = cl.parse_description(
        "input type=class name=c\n"
        "layer type=projection name=p input=c size=2\n"
        "layer type=softmax name=o input=p\n"
    )
    net = cl.instantiate_network(desc, vocab, classes, seed=0)
    net.params["o/W"][:] = 0.0  # uniform class distribution
    net.params["o/b"][:] = 0.0
    samples = cl.sample_text(net, seed=11, max_tokens=1, count=4000)
    first = [s[0] for s in samples if s]
    xy = [t for t in first if t in ("x", "y")]
    # a quarter of the draws land in the two-word class; within it the
    # membership split is 3:1
    assert len(xy) > 700
    ratio = xy.count("x") / len(xy)
    assert abs(ratio - 0.75) < 0.05


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("sizes", [(4, 6, 6), (300, 96, 48)], ids=["small", "bench"])
def test_batched_sampling_equals_one_at_a_time_bitwise(sizes, precision):
    vocab_size, num_classes = (15, 5) if sizes[0] < 100 else (120, 40)
    net = support.random_class_network(np.random.default_rng(7), vocab_size, num_classes,
                                       sizes=sizes, precision=precision)
    for seed in (0, 1, 2):
        batched = cl.sample_text(net, seed=seed, max_tokens=12, count=20)
        assert batched == sample_one_at_a_time(net, seed, 12, 20)
        # sentences of every length, so rows leave the batch at many steps
        assert len({len(tokens) for tokens in batched}) > 3


def test_steps_are_padded_and_capped_without_changing_the_text(rng, monkeypatch):
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    whole = cl.sample_text(net, seed=4, max_tokens=10, count=20)
    rows = []
    step = net.step

    def recording(state, word_ids):
        rows.append(len(word_ids))
        return step(state, word_ids)

    monkeypatch.setattr(net, "step", recording)
    assert cl.sample_text(net, seed=4, max_tokens=10, count=1) == whole[:1]
    assert set(rows) == {ROW_BLOCK}
    rows.clear()
    monkeypatch.setattr(cl.scoring, "MAX_STEP_ROWS", ROW_BLOCK)
    assert cl.sample_text(net, seed=4, max_tokens=10, count=20) == whole
    assert set(rows) == {ROW_BLOCK} and len(rows) > 10


def test_the_first_step_runs_one_row_for_every_sentence(rng, monkeypatch):
    # every sentence starts from the same state row and the start token
    net = support.random_class_network(rng, vocab_size=15, num_classes=5)
    rows = []

    def spy(network, state, state_rows, word_ids):
        rows.append(len(state_rows))
        return step_rows(network, state, state_rows, word_ids)

    monkeypatch.setattr(cl.sampling, "step_rows", spy)
    sentences = cl.sample_text(net, seed=4, max_tokens=10, count=20)
    assert rows[0] == 1 and rows[1] > 1
    assert sentences == sample_per_row(net, 4, 10, 20)


def test_r_at_the_row_total_picks_the_last_class_or_member():
    # u = 1 makes r the row total; the last class and the last member have
    # probability 0, so searchsorted passes every entry and the cap picks the last
    cumulative = np.array([[0.25, 0.5, 1.0, 1.0], [0.0, 0.0, 0.0, 3.0]])
    assert _pick_classes(cumulative, np.ones(2)).tolist() == [3, 3]
    assert [_draw(FixedDraw(1.0), row) for row in cumulative] == [3, 3]
    class_of = np.array([0, 1, 2, 3, 3, 3, 4, 4])
    membership = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.0, 1.0, 0.0])
    classes = cl.ClassMap(class_of, membership, 5)
    assert _pick_members(classes, np.array([3, 4, 3]), np.ones(3)).tolist() == [5, 7, 5]
    assert _pick_members(classes, np.array([3, 4]), np.array([0.5, 0.0])).tolist() == [4, 6]


def test_member_blocks_are_split_without_changing_the_picks(monkeypatch):
    rng = np.random.default_rng(9)
    class_of = rng.integers(0, 6, size=200)
    class_of[:6] = np.arange(6)
    classes = cl.ClassMap.from_counts(class_of, rng.integers(0, 5, size=200))
    c, u = rng.integers(0, 6, size=300), rng.random(300)
    whole = _pick_members(classes, c, u)
    monkeypatch.setattr(cl.sampling, "PICK_BLOCK_ELEMENTS", 1)
    assert _pick_members(classes, c, u).tolist() == whole.tolist()
    groups = support.class_members(classes)
    for word, ci, ui in zip(whole.tolist(), c.tolist(), u.tolist()):
        members = groups[ci]
        assert word == members[_draw(FixedDraw(ui), np.cumsum(classes.membership[members]))]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_class_picks_equal_scalar_draws_at_the_boundaries(dtype):
    rng = np.random.default_rng(6)
    cumulative = np.cumsum(rng.random((200, 5)).astype(dtype), axis=1)
    u = rng.random(200)
    # uniforms just below an entry over the total: a float32 product
    # rounds them onto the entry, a float64 product stays below it
    total = cumulative[:100, -1].astype(np.float64)
    u[:100] = np.nextafter(cumulative[:100, 2] / total, 0.0)
    expected = [_draw(FixedDraw(ui), row) for ui, row in zip(u.tolist(), cumulative)]
    assert _pick_classes(cumulative, u).tolist() == expected
