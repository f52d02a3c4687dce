"""Property test: serializing a description and parsing it back is the identity."""

import pytest

import classlm as cl
from classlm.architecture import INPUT_KINDS, LAYER_KINDS, SIZED_KINDS, LayerSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def descriptions(draw):
    specs = []
    for line_no in range(1, draw(st.integers(1, 8)) + 1):
        name = f"l{line_no}"
        if line_no == 1 or (line_no == 2 and draw(st.booleans())):
            specs.append(LayerSpec(kind=draw(st.sampled_from(INPUT_KINDS)), name=name,
                                   line_no=line_no))
            continue
        kind = draw(st.sampled_from(LAYER_KINDS))
        earlier = [s.name for s in specs]
        inputs = tuple(draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3)))
        size = draw(st.integers(1, 10**6)) if kind in SIZED_KINDS else None
        rate = (draw(st.floats(0.0, 1.0, exclude_max=True)) if kind == "dropout" else None)
        specs.append(LayerSpec(kind=kind, name=name, inputs=inputs, size=size,
                               dropout_rate=rate, line_no=line_no))
    return cl.NetworkDescription(specs)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(descriptions())
def test_parse_inverts_serialize(desc):
    text = cl.serialize_description(desc)
    assert cl.parse_description(text) == desc
    assert cl.serialize_description(cl.parse_description(text)) == text


def test_dropout_rate_text_is_exact_and_unchanged_where_g_was_exact():
    def text(rate):
        desc = cl.NetworkDescription([
            LayerSpec(kind="word_input", name="w", line_no=1),
            LayerSpec(kind="dropout", name="d", inputs=("w",), dropout_rate=rate, line_no=2)])
        return cl.serialize_description(desc).split("dropout_rate=")[1].strip()

    # these texts are in saved models: a model re-saved keeps its bytes
    assert [text(r) for r in (0.2, 0.25, 0.0, 0.5)] == ["0.2", "0.25", "0", "0.5"]
    assert text(0.1234567) == "0.1234567"
    assert text(0.9999999) == "0.9999999"
