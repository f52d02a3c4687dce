"""Property tests: any batch scores bitwise like one-at-a-time scoring, and
calls split into runs on threads give the bits of unsplit calls."""

import numpy as np
import pytest

import classlm as cl

import support
from test_scoring import _sentence_bits

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


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
    batched = cl.score_arrays(net, batch, unk_policy)
    for i, sent in enumerate(batch):
        single = cl.score_arrays(net, [sent], unk_policy)
        assert _sentence_bits(batched, i) == _sentence_bits(single, 0)


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(count=st.integers(1, 300), longest=st.integers(1, 12),
                  seed=st.integers(0, 2**32 - 1), max_tokens=st.integers(0, 12))
def test_steps_in_parts_give_the_bits_of_one_part(property_network, count, longest, seed,
                                                  max_tokens):
    net = property_network
    rng = np.random.default_rng(seed)
    words = net.vocab.words[3:] + ["OOV_a"]
    # runs of one sentence up to 150, whose levels span one row to many blocks
    batch = [[words[i] for i in rng.integers(0, len(words), rng.integers(1, longest + 1))]
             for _ in range(count)]
    runs = []
    for cpus in (1, 2, 3):  # 3 runs divide few sentence counts
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cl.network, "RUN_SENTENCES", 1)
            patch.setattr(cl.network, "cpu_count", lambda: cpus)
            scores = cl.score_arrays(net, batch)
            runs.append(([_sentence_bits(scores, i) for i in range(count)],
                         cl.sample_text(net, seed, max_tokens, count)))
    assert runs[0] == runs[1] == runs[2]
