"""Property test: a model file with corrupted parameter index fields or
payload bytes either loads the values the file holds or is rejected with a
ModelFormatError, never another exception."""

import json
import struct

import numpy as np
import pytest

import classlm as cl
from classlm.model_io import MAGIC, ModelFormatError

import support

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELD_VALUES = {
    "offset": st.integers(-2**40, 2**40) | st.integers(-64, 4096),
    "nbytes": st.integers(-2**40, 2**40) | st.integers(-64, 4096),
    "shape": st.lists(st.integers(-2**40, 2**40) | st.integers(-2, 40), max_size=3),
}


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.clm"
    cl.save_model(path, support.random_class_network(np.random.default_rng(5), 6, 3))
    return path, path.read_bytes()


def _payload(path):
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    end = len(MAGIC) + 8 + header_len
    return json.loads(blob[len(MAGIC) + 8:end]), blob[end + (-end) % 16:]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_corrupted_model_loads_its_values_or_is_a_format_error(saved_model, data):
    path, original = saved_model
    path.write_bytes(original)
    _, payload = _payload(path)
    params = len(_payload(path)[0]["parameters"])
    edits = data.draw(st.lists(st.tuples(st.integers(0, params - 1),
                                         st.sampled_from(sorted(FIELD_VALUES))), max_size=3))
    values = [data.draw(FIELD_VALUES[field]) for _, field in edits]

    def edit(header):
        for (i, field), value in zip(edits, values):
            header["parameters"][i][field] = value

    support.rewrite_header(path, edit)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(payload) - 1),
                                         st.integers(0, 255)), max_size=4))
    blob = bytearray(path.read_bytes())
    start = len(blob) - len(payload)
    for at, byte in flips:
        blob[start + at] = byte
    path.write_bytes(bytes(blob))

    try:
        network, _ = cl.load_model(path)
    except ModelFormatError:
        return
    header, payload = _payload(path)
    dtype = np.dtype("<f8")
    blocks = support.file_block_views(network)
    for entry in header["parameters"]:
        block = payload[entry["offset"]:entry["offset"] + entry["nbytes"]]
        value = blocks[entry["name"]]
        assert value.shape == tuple(entry["shape"])
        assert value.astype(dtype).tobytes() == block
