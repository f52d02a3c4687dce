"""Property test of the exchange algorithm on random small corpora."""

import numpy as np
import pytest

import classlm as cl
from classlm.vocabulary import RESERVED

from test_classing import brute_force_loglik

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def corpus_and_classes(draw):
    n_types = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, n_types - 1), min_size=2, max_size=80))
    words = [f"w{i}" for i in ids]
    num_classes = draw(st.integers(1, len(set(words))))
    scheme = draw(st.sampled_from(["striped", "random"]))
    return words, num_classes, scheme, draw(st.integers(0, 100))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(corpus_and_classes())
def test_exchange_trace_partition_and_objective(case):
    words, num_classes, scheme, seed = case
    vocab, cm, trace = cl.run_exchange([words], num_classes, scheme=scheme, seed=seed,
                                       max_passes=4)
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    sizes = np.bincount(cm.class_of, minlength=cm.num_classes)
    assert cm.num_classes == num_classes + len(RESERVED) and (sizes > 0).all()
    for offset, tok in enumerate(RESERVED):
        assert cm.members[num_classes + offset] == [vocab.ids[tok]]
    stream = [vocab.id_of(t) for t in words]
    counts = np.bincount(stream, minlength=len(vocab))
    assert trace[-1] == pytest.approx(brute_force_loglik(stream, cm.class_of, counts), abs=1e-8)
