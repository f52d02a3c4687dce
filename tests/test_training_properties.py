"""Property tests: for random architectures, batch sizes, lengths and
precisions, the time-major trainer and the network step give the bits of
the step-by-step reference kept in test_training.py; and the trainer's
batches, built from one framed id matrix, equal those of a per-sentence
reference kept here."""

import numpy as np
import pytest

import classlm as cl

import support
from test_training import (_ragged_batch, assert_gradients_match_reference,
                           assert_steps_match_reference)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def architectures(draw):
    """A stack of 1-3 lstm/gru/tanh/dropout layers over word and/or class
    inputs; the softmax reads the last layer or the last two, so that one
    layer's output has two consumers."""
    streams = draw(st.sampled_from([("word",), ("class",), ("word", "class")]))
    lines = [f"input type={kind} name={kind}_in" for kind in streams]
    lines.append(f"layer type=projection name=proj input={','.join(f'{k}_in' for k in streams)}"
                 f" size={draw(st.integers(2, 5))}")
    names = ["proj"]
    stack = draw(st.lists(st.sampled_from(["lstm", "gru", "tanh", "dropout"]),
                          min_size=1, max_size=3))
    for i, kind in enumerate(stack):
        attr = (f"dropout_rate={draw(st.sampled_from([0.0, 0.25, 0.5]))}" if kind == "dropout"
                else f"size={draw(st.integers(2, 6))}")
        lines.append(f"layer type={kind} name=l{i} input={names[-1]} {attr}")
        names.append(f"l{i}")
    reads = names[-2:] if draw(st.booleans()) else names[-1:]
    lines.append(f"layer type=softmax name=out input={','.join(reads)}")
    return "\n".join(lines) + "\n"


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(arch=architectures(), precision=st.sampled_from(["double", "single"]),
                  batch=st.integers(1, 17), length=st.integers(1, 12),
                  seed=st.integers(0, 2**32 - 1))
def test_trainer_and_step_match_the_step_by_step_reference_bitwise(arch, precision, batch,
                                                                   length, seed):
    rng = np.random.default_rng(seed)
    vocab = cl.Vocabulary([f"w{i}" for i in range(9)],
                          {f"w{i}": int(rng.integers(1, 20)) for i in range(9)})
    classes = cl.initialize_classes(vocab, 4, seed=3)
    net = cl.instantiate_network(cl.parse_description(arch), vocab, classes,
                                 seed=int(rng.integers(1 << 30)), precision=precision)
    inputs, targets, mask = _ragged_batch(rng, net, length, rows=batch)
    # the reference_ops fixture in the form that hypothesis, which runs many
    # examples per test call, lets a test use
    with pytest.MonkeyPatch.context() as monkeypatch:
        support.register_reference_ops(monkeypatch)
        assert_gradients_match_reference(net, inputs, targets, mask, seed)
        assert_steps_match_reference(net, inputs[:, :3])


_NET = support.random_class_network(np.random.default_rng(5), vocab_size=6, num_classes=3)


def _reference_batches(vocab, sentences, max_len, batch_size, rng):
    """Batches made one sentence at a time: each sentence framed on its own
    and cut into segments, the segments shuffled, put in a stable order by
    length, padded row by row in batches, and the batch order shuffled."""
    segments = []
    for tokens in sentences:
        ids = [vocab.start_id, *[vocab.ids.get(t, vocab.unk_id) for t in tokens], vocab.end_id]
        inputs, targets = ids[:-1], ids[1:]
        for start in range(0, len(inputs), max_len):
            segments.append((inputs[start:start + max_len], targets[start:start + max_len]))
    order = sorted(rng.permutation(len(segments)).tolist(), key=lambda i: len(segments[i][0]))
    batches = []
    for lo in range(0, len(order), batch_size):
        chunk = [segments[i] for i in order[lo:lo + batch_size]]
        length = max(len(inputs) for inputs, _ in chunk)
        inputs = np.zeros((len(chunk), length), dtype=np.int64)
        targets = np.zeros((len(chunk), length), dtype=np.int64)
        mask = np.zeros((len(chunk), length))
        for row, (inp, tgt) in enumerate(chunk):
            inputs[row, :len(inp)] = inp
            targets[row, :len(tgt)] = tgt
            mask[row, :len(inp)] = 1.0
        batches.append((inputs, targets, mask))
    return [batches[i] for i in rng.permutation(len(batches))]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    sentences=st.lists(st.lists(st.sampled_from(_NET.vocab.words[3:] + ["OOV"]), max_size=14),
                       min_size=1, max_size=20),
    max_len=st.integers(1, 11), batch_size=st.integers(1, 19), seed=st.integers(0, 2**32 - 1))
@hypothesis.example(sentences=[[], ["w3"], [], ["w4", "OOV", "w5"]], max_len=1, batch_size=3,
                    seed=0)
@hypothesis.example(sentences=[[]], max_len=1, batch_size=1, seed=1)
@hypothesis.example(sentences=[["w3"] * 13, [], ["w4"] * 5] * 3, max_len=4, batch_size=7, seed=2)
def test_batches_equal_the_per_sentence_reference(sentences, max_len, batch_size, seed):
    segments = cl.training._segments(_NET, sentences, max_len)
    batches = cl.training._make_batches(segments, batch_size, np.random.default_rng(seed))
    reference = _reference_batches(_NET.vocab, sentences, max_len, batch_size,
                                   np.random.default_rng(seed))
    assert len(batches) == len(reference)
    for batch, expected in zip(batches, reference):
        for array, want in zip(batch, expected):
            assert (array.dtype, array.shape) == (want.dtype, want.shape)
            assert array.tobytes() == want.tobytes()
