"""Property test: a sampled sentence does not depend on how many are drawn."""

import numpy as np
import pytest

import classlm as cl

import support

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
