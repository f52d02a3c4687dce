"""Property tests: a sampled sentence does not depend on how many are drawn,
and the array draws equal per-row scalar draws."""

import numpy as np
import pytest

import classlm as cl

import support
from test_sampling import sample_per_row

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture(scope="module", params=["double", "single"])
def property_network(request):
    return support.random_class_network(np.random.default_rng(3), 15, 5,
                                        precision=request.param)


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(seed=st.integers(0, 2**32), max_tokens=st.integers(0, 15),
                  counts=st.lists(st.integers(1, 40), min_size=1, max_size=4))
def test_sentence_i_is_the_same_for_every_count_above_i(property_network, seed, max_tokens,
                                                       counts):
    most = cl.sample_text(property_network, seed, max_tokens, max(counts))
    for count in counts:
        assert cl.sample_text(property_network, seed, max_tokens, count) == most[:count]


def _skewed_network(classes_of, precision):
    """An untrained LSTM model over 30 words with the given class layout,
    its end token made unlikely so that sentences run long."""
    words = [f"w{i}" for i in range(30)]
    vocab = cl.Vocabulary(words, {w: 1 + i % 7 for i, w in enumerate(words)})
    class_of, k = classes_of(len(vocab))
    classes = cl.ClassMap.from_counts(class_of, vocab.counts, k)
    desc = cl.parse_description(
        "input type=class name=c\n"
        "layer type=projection name=p input=c size=6\n"
        "layer type=lstm name=r input=p size=8\n"
        "layer type=softmax name=o input=r\n")
    net = cl.instantiate_network(desc, vocab, classes, seed=2, precision=precision)
    net.params["o/b"][classes.class_of[vocab.end_id]] -= 3.0
    return net


LAYOUTS = {
    # every word its own class: no member draws
    "singletons": lambda n: (np.arange(n), n),
    # the reserved tokens and two words alone, every other word in class 0
    "one big class": lambda n: (np.array([1, 2, 3, 4, 5] + [0] * (n - 5)), 6),
}


@pytest.fixture(scope="module", params=[(layout, precision) for layout in LAYOUTS
                                        for precision in ("double", "single")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def layout_network(request):
    layout, precision = request.param
    return _skewed_network(LAYOUTS[layout], precision)


@hypothesis.settings(max_examples=15, deadline=None, derandomize=True, database=None)
@hypothesis.given(seed=st.integers(0, 2**32), count=st.integers(0, 40),
                  max_tokens=st.integers(0, 70))
def test_sample_text_equals_the_per_row_reference(layout_network, seed, count, max_tokens):
    assert (cl.sample_text(layout_network, seed, max_tokens, count)
            == sample_per_row(layout_network, seed, max_tokens, count))
