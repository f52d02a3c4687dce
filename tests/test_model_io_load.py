"""Loading reads the header, then each parameter block once: memory and the
header-length and short-read errors."""

import struct
import tracemalloc
import types

import numpy as np
import pytest

import classlm as cl
import classlm.model_io
from classlm.model_io import MAGIC, ModelFormatError

import support


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    net = support.random_class_network(np.random.default_rng(2), 200, 20, sizes=(300, 300, 300))
    path = tmp_path_factory.mktemp("model") / "model.clm"
    cl.save_model(path, net)
    return path, net


def test_load_holds_about_one_copy_of_the_parameters(saved_model):
    path, net = saved_model
    payload = sum(value.nbytes for value in net.params.values())
    (header_len,) = struct.unpack_from("<Q", path.read_bytes(), len(MAGIC))
    assert payload > 4e6
    cl.load_model(path)  # imports and caches warm
    tracemalloc.start()
    try:
        loaded, _ = cl.load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * payload + 32 * header_len
    for name, value in net.params.items():
        assert loaded.params[name].tobytes() == value.tobytes()


@pytest.mark.parametrize("huge", [True, False], ids=["2**63", "one-byte-past-the-end"])
def test_header_length_beyond_the_file_is_a_format_error(tmp_path, saved_model, huge):
    body = saved_model[0].read_bytes()[len(MAGIC) + 8:]
    path = tmp_path / "model.clm"
    path.write_bytes(MAGIC + struct.pack("<Q", 2**63 if huge else len(body) + 1) + body)
    with pytest.raises(ModelFormatError, match="truncated header") as err:
        cl.load_model(path)
    assert "\n" not in str(err.value)


def test_short_read_names_the_parameter(tmp_path, saved_model, monkeypatch):
    # a file that shrinks after its size was taken: the read comes up short,
    # in the last block or past the first piece of a block of several pieces
    blob = saved_model[0].read_bytes()
    big = max(support.strict_header(saved_model[0])["parameters"], key=lambda e: e["nbytes"])
    assert big["nbytes"] > classlm.model_io._PIECE_BYTES + 8
    payload_start = len(blob) - sum(value.nbytes for value in saved_model[1].params.values())
    cut_in_big = payload_start + big["offset"] + classlm.model_io._PIECE_BYTES + 8
    last = list(saved_model[1].params)[-1]
    path = tmp_path / "model.clm"
    for end, block in ((len(blob) - 16, last), (cut_in_big, big["name"])):
        path.write_bytes(blob[:end])
        with pytest.raises(ModelFormatError,
                           match=f"payload truncated; parameter '{block}' incomplete"):
            cl.load_model(path)  # the file's own size
        with monkeypatch.context() as patch:
            grown = types.SimpleNamespace(st_size=len(blob))
            patch.setattr(classlm.model_io, "os", types.SimpleNamespace(fstat=lambda fd: grown))
            with pytest.raises(ModelFormatError,
                               match=f"payload truncated; parameter '{block}' incomplete$"):
                cl.load_model(path)


def test_block_shapes_are_checked_before_any_parameter_is_allocated(tmp_path, saved_model):
    # an LSTM of 10**15 units: its stacked U alone would hold 4 * 10**30
    # values, so only a check of the header's blocks can fail cleanly
    path = tmp_path / "model.clm"
    path.write_bytes(saved_model[0].read_bytes())
    support.rewrite_header(path, lambda h: h.update(architecture=h["architecture"].replace(
        "name=rec input=proj size=300", f"name=rec input=proj size={10**15}")))
    with pytest.raises(ModelFormatError, match=r"parameter 'rec/W_i' has shape \(300, 300\),"
                                               rf" architecture implies \(300, {10**15}\)"):
        cl.load_model(path)
