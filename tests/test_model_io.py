"""Model-file round trips, canonical bytes, corruption and version gating."""

import json
import re
import struct

import numpy as np
import pytest

import classlm as cl
from classlm.model_io import _PIECE_BYTES, MAGIC, ModelFormatError

import support


def _wide_network(rng, precision="double"):
    """A network whose embedding block 'proj/E_class_input' spans more than
    one of the pieces that a load reads and checks at a time."""
    net = support.random_class_network(rng, vocab_size=40, num_classes=40, sizes=(2000, 6, 6),
                                       precision=precision)
    assert net.params["proj/E_class_input"].nbytes > _PIECE_BYTES
    return net


def _training_meta():
    return {"best_dev_perplexity": 3.25, "history": [[8, 4.0, 1.0], [16, 3.25, 1.0]],
            "stopped_reason": "max epochs reached"}


def test_round_trip_is_bit_exact(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=9, num_classes=4)
    path = tmp_path / "model.clm"
    cl.save_model(path, net, _training_meta())
    loaded, training = cl.load_model(path)
    assert training == _training_meta()
    assert loaded.precision == net.precision
    assert list(loaded.params) == list(net.params)
    for name in net.params:
        np.testing.assert_array_equal(loaded.params[name], net.params[name])
    assert loaded.vocab.words == net.vocab.words
    np.testing.assert_array_equal(loaded.classes.class_of, net.classes.class_of)
    np.testing.assert_array_equal(loaded.classes.membership, net.classes.membership)


def test_scores_identical_after_round_trip(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=9, num_classes=4)
    path = tmp_path / "model.clm"
    cl.save_model(path, net)
    loaded, _ = cl.load_model(path)
    sent = [net.vocab.words[4], net.vocab.words[7], net.vocab.words[5]]
    before = cl.score_arrays(net, [sent])
    after = cl.score_arrays(loaded, [sent])
    assert before.totals[0] == after.totals[0]
    assert (before.logp == after.logp).all()


def test_save_load_save_is_byte_identical(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=9, num_classes=4)
    p1 = tmp_path / "m1.clm"
    p2 = tmp_path / "m2.clm"
    cl.save_model(p1, net, _training_meta())
    loaded, training = cl.load_model(p1)
    cl.save_model(p2, loaded, training)
    assert p1.read_bytes() == p2.read_bytes()


def test_nonfinite_perplexities_are_strict_json_nulls(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=9, num_classes=4)
    meta = {"best_dev_perplexity": float("inf"),
            "history": [[4, 7.5, 1.0], [8, float("inf"), 1.0], [12, float("nan"), 0.5]],
            "stopped_reason": "diverged"}
    p1, p2 = tmp_path / "m1.clm", tmp_path / "m2.clm"
    cl.save_model(p1, net, meta)
    stored = {"best_dev_perplexity": None, "history": [[4, 7.5, 1.0], [8, None, 1.0],
                                                       [12, None, 0.5]],
              "stopped_reason": "diverged"}
    assert support.strict_header(p1)["training"] == stored
    loaded, training = cl.load_model(p1)
    assert training == stored
    cl.save_model(p2, loaded, training)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("training", [
    [], {"best_dev_perplexity": "3.5"}, {"best_dev_perplexity": True}, {"history": {}},
    {"history": [[4, 3.5]]}, {"history": [[4, "inf", 1.0]]}])
def test_mistyped_training_metadata_is_rejected(tmp_path, rng, training):
    path = tmp_path / "model.clm"
    cl.save_model(path, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(path, lambda h: h.__setitem__("training", training))
    with pytest.raises(ModelFormatError, match="^[^\n]*field 'training' has the wrong type$"):
        cl.load_model(path)


@pytest.mark.parametrize("field, edit", [
    ("format_version", lambda h: h.__setitem__("format_version", True)),
    ("parameters[0].offset", lambda h: h["parameters"][0].__setitem__("offset", False)),
    ("vocabulary.counts", lambda h: h["vocabulary"]["counts"].__setitem__(4, True)),
    ("classes.class_of", lambda h: h["classes"]["class_of"].__setitem__(4, False)),
], ids=["format_version", "offset", "counts", "class_of"])
def test_a_json_boolean_in_an_integer_field_is_rejected(tmp_path, rng, field, edit):
    # JSON true and false decode to Python bools, which are ints to isinstance
    path = tmp_path / "model.clm"
    cl.save_model(path, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(path, edit)
    with pytest.raises(ModelFormatError,
                       match=rf"^[^\n]*field '{re.escape(field)}' has the wrong type$"):
        cl.load_model(path)


@pytest.mark.parametrize("position, source", [(4, 2), (7, 5), (8, 0)],
                         ids=["unk-among-words", "regular-word", "start-token-last"])
def test_a_word_repeated_in_the_header_table_is_rejected(tmp_path, rng, position, source):
    # a repeated <unk> once loaded with every later word one id off its
    # class and membership entries
    path = tmp_path / "model.clm"
    cl.save_model(path, support.random_class_network(rng, vocab_size=6, num_classes=3))
    words = support.strict_header(path)["vocabulary"]["words"]
    assert len(words) == 9
    support.rewrite_header(path, lambda h: h["vocabulary"]["words"].__setitem__(
        position, words[source]))
    with pytest.raises(ModelFormatError,
                       match=rf"^[^\n]*: duplicate word {re.escape(repr(words[source]))}$"):
        cl.load_model(path)


def test_a_negative_count_in_the_header_table_is_rejected(tmp_path, rng):
    path = tmp_path / "model.clm"
    cl.save_model(path, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(path, lambda h: h["vocabulary"]["counts"].__setitem__(5, -1))
    with pytest.raises(ModelFormatError, match=r"^[^\n]*: negative count for 'w2'$"):
        cl.load_model(path)


@pytest.mark.parametrize("field, value, kind", [
    ("class_of", 2**63, "int64"),
    ("class_of", -2**63 - 1, "int64"),
    ("membership", 10**400, "float64"),
], ids=["class_of-above", "class_of-below", "membership"])
def test_a_class_entry_outside_its_array_type_is_rejected(tmp_path, rng, field, value, kind):
    # JSON integers have no bound, and the class table loads as int64 ids
    # and float64 memberships
    path = tmp_path / "model.clm"
    cl.save_model(path, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(path, lambda h: h["classes"][field].__setitem__(4, value))
    with pytest.raises(ModelFormatError, match=rf"^{re.escape(str(path))}: model header field"
                                               rf" 'classes.{field}' holds a number outside"
                                               rf" {kind}$"):
        cl.load_model(path)


def test_single_precision_round_trip(tmp_path, rng):
    corpus = [["a", "b", "c"]] * 4
    vocab = cl.build_vocabulary(corpus)
    classes = cl.initialize_classes(vocab, 2)
    desc = cl.parse_description(support.SMALL_ARCH)
    net = cl.instantiate_network(desc, vocab, classes, seed=1, precision="single")
    assert net.params["output_layer/W"].dtype == np.float32
    path = tmp_path / "m32.clm"
    cl.save_model(path, net)
    loaded, _ = cl.load_model(path)
    assert loaded.params["output_layer/W"].dtype == np.float32
    for name in net.params:
        np.testing.assert_array_equal(loaded.params[name], net.params[name])
    s1 = cl.score_arrays(net, [["a", "c"]])
    s2 = cl.score_arrays(loaded, [["a", "c"]])
    assert s1.totals[0] == s2.totals[0]


def test_truncated_payload_names_first_missing_parameter(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    path = tmp_path / "model.clm"
    cl.save_model(path, net)
    blob = path.read_bytes()
    last_param = list(net.params)[-1]
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(ModelFormatError, match="truncated") as err:
        cl.load_model(path)
    assert last_param in str(err.value)


def test_future_version_is_rejected_cleanly(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    path = tmp_path / "model.clm"
    cl.save_model(path, net)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + header_len])
    header["format_version"] = 99
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = MAGIC + struct.pack("<Q", len(new_header)) + new_header
    pad = (-len(prefix)) % 16
    payload_start = start + header_len + ((-(start + header_len)) % 16)
    path.write_bytes(prefix + b"\0" * pad + blob[payload_start:])
    with pytest.raises(ModelFormatError, match="version 99"):
        cl.load_model(path)


def test_not_a_model_file(tmp_path):
    path = tmp_path / "garbage.clm"
    path.write_bytes(b"PNG\x89 definitely not a model")
    with pytest.raises(ModelFormatError, match="magic"):
        cl.load_model(path)


def test_mismatched_parameter_index_is_rejected(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    path = tmp_path / "model.clm"
    cl.save_model(path, net)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(blob[start : start + header_len])
    header["parameters"][0]["name"] = "renamed/W"
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    prefix = MAGIC + struct.pack("<Q", len(new_header)) + new_header
    pad = (-len(prefix)) % 16
    payload_start = start + header_len + ((-(start + header_len)) % 16)
    path.write_bytes(prefix + b"\0" * pad + blob[payload_start:])
    with pytest.raises(ModelFormatError, match="does not match"):
        cl.load_model(path)


def test_nonfinite_class_membership_is_rejected(tmp_path, rng):
    path = tmp_path / "model.clm"
    cl.save_model(path, support.random_class_network(rng, vocab_size=6, num_classes=3))
    support.rewrite_header(path, lambda h: h["classes"]["membership"].__setitem__(4, float("nan")))
    with pytest.raises(ModelFormatError, match="non-finite membership"):
        cl.load_model(path)


_STEP = _PIECE_BYTES // 8  # doubles per piece
_EMBEDDING = "proj/E_class_input"


@pytest.mark.parametrize("bad, block, position", [
    *[pytest.param(bad, "rec/U_f", 13, id=str(bad)) for bad in (np.inf, -np.inf, np.nan)],
    *[pytest.param(bad, _EMBEDDING, position, id=f"{bad}-embedding-{where}")
      for bad in (np.inf, np.nan)
      for where, position in (("end-of-a-piece", _STEP - 1), ("start-of-a-piece", _STEP),
                              ("last", -1))],
])
def test_nonfinite_parameter_is_rejected_naming_it(tmp_path, rng, bad, block, position):
    net = _wide_network(rng)
    support.file_block_views(net)[block].reshape(-1)[position] = bad
    path = tmp_path / "model.clm"
    cl.save_model(path, net)
    with pytest.raises(ModelFormatError, match=f"'{block}' has non-finite values"):
        cl.load_model(path)


def test_finite_parameter_whose_sum_overflows_loads(tmp_path, rng):
    # in every piece of the embedding, and in a one-piece block, two values
    # whose sum overflows
    for precision, big in (("double", 1e308), ("single", 3e38)):
        net = _wide_network(rng, precision)
        net.params["out/b"][:2] = big
        embedding = net.params[_EMBEDDING].reshape(-1)
        step = _PIECE_BYTES // embedding.itemsize
        assert embedding.size > step
        for start in range(0, embedding.size, step):
            embedding[start:start + 2] = big
        path = tmp_path / f"{precision}.clm"
        cl.save_model(path, net)
        loaded, _ = cl.load_model(path)
        for name, value in net.params.items():
            assert loaded.params[name].tobytes() == value.tobytes()


def test_save_is_atomic_no_temp_left_behind(tmp_path, rng):
    net = support.random_class_network(rng, vocab_size=6, num_classes=3)
    path = tmp_path / "model.clm"
    cl.save_model(path, net)
    cl.save_model(path, net)  # overwrite in place
    leftovers = [p for p in tmp_path.iterdir() if p.name != "model.clm"]
    assert leftovers == []
