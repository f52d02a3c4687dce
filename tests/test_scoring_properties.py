"""Property test: any batch scores bitwise like one-at-a-time scoring."""

import numpy as np
import pytest

import classlm as cl

import support

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _bits(result):
    """A ScoreResult with every float as its exact hex form."""
    return (result.total.hex(), result.counted,
            [None if v is None else v.hex() for v in result.per_token])


@pytest.fixture(scope="module", params=[(4, 6, 6), (300, 96, 48)], ids=["small", "bench"])
def sizes(request):
    return request.param


@pytest.fixture(scope="module", params=["double", "single"])
def property_network(request, sizes):
    vocab_size, num_classes = (15, 5) if sizes[0] < 100 else (120, 40)
    return support.random_class_network(np.random.default_rng(7), vocab_size, num_classes,
                                        sizes=sizes, precision=request.param)


@st.composite
def _sentence_batches(draw, words):
    """Sentences of 1-25 words built from a few stems, so the batch holds
    duplicates, shared prefixes of every depth and unknown words."""
    word = st.sampled_from(words + ["OOV_a", "OOV_b"])
    stems = draw(st.lists(st.lists(word, min_size=1, max_size=25), min_size=1, max_size=4))
    batch = []
    for _ in range(draw(st.integers(1, 10))):
        stem = draw(st.sampled_from(stems))
        cut = draw(st.integers(1, len(stem)))
        batch.append(stem[:cut] + draw(st.lists(word, max_size=25 - cut)))
    return batch


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
@pytest.mark.parametrize("unk_policy", cl.scoring.UNK_POLICIES)
def test_any_batch_scores_bitwise_like_one_at_a_time(property_network, unk_policy, data):
    net = property_network
    batch = data.draw(_sentence_batches(net.vocab.words[3:]))
    batched = cl.score_sentences(net, batch, unk_policy)
    for sent, res in zip(batch, batched):
        assert _bits(res) == _bits(cl.score_sentence(net, sent, unk_policy))
