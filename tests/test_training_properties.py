"""Property test: for random architectures, batch sizes, lengths and
precisions, the time-major trainer and the network step give the bits of
the step-by-step reference kept in test_training.py."""

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
