"""Single-file model container: JSON header + binary parameter payload.

Byte layout:

    bytes 0..3    magic ``CLMF``
    bytes 4..11   header length H, little-endian unsigned 64-bit
    bytes 12..12+H  UTF-8 JSON header (canonical: sorted keys, no spaces)
    padding to the next 16-byte boundary
    parameter payload (little-endian IEEE floats, one block per parameter)

The header records the format version, the architecture description text,
the vocabulary and class tables, a parameter index (name, shape, offset,
byte length) and optional training metadata.  The header is strict JSON: a
perplexity that is not finite (a diverged run) is stored as ``null``.  The
index lists one block per gate of an LSTM or GRU parameter
(:func:`classlm.network.file_blocks`): a save writes each gate's slice of
the stacked array, and a load reads each block into its slice.
Serialization is canonical, so saving, loading and saving again produces a
byte-identical file; the payload stores parameters bit-exactly, so a
reloaded model scores any sentence identically to the saved one.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .architecture import (
    DescriptionError,
    parse_description,
    serialize_description,
    validate_description,
)
from .classing import ClassMap
from .network import Network, file_blocks, parameter_shapes
from .vocabulary import Vocabulary

__all__ = ["FORMAT_VERSION", "ModelFormatError", "load_model", "save_model"]

MAGIC = b"CLMF"
FORMAT_VERSION = 1
_ALIGN = 16
_PIECE_BYTES = 1 << 18  # a load reads and checks each block in cache-sized pieces


class ModelFormatError(Exception):
    """The file is not a readable model of a supported version."""


# Required header fields: a type, [allowed item types] or a nested schema.
_HEADER_SCHEMA = {
    "format_version": int,
    "precision": str,
    "architecture": str,
    "vocabulary": {"words": [str], "counts": [int]},
    "classes": {"num_classes": int, "class_of": [int], "membership": [int, float]},
    "parameters": [dict],
}
_PARAMETER_SCHEMA = {"name": str, "shape": [int], "offset": int, "nbytes": int}


def _check_schema(path, obj, schema, prefix=""):
    """Raise :class:`ModelFormatError` naming the first missing or mistyped field."""
    for key, kind in schema.items():
        field = prefix + key
        if key not in obj:
            raise ModelFormatError(f"{path}: model header has no field {field!r}")
        value = obj[key]
        if isinstance(kind, dict):
            ok = isinstance(value, dict)
        elif isinstance(kind, list):
            ok = isinstance(value, list) and set(map(type, value)) <= set(kind)
        else:  # exact types: JSON true and false are not ints
            ok = type(value) is kind
        if not ok:
            raise ModelFormatError(f"{path}: model header field {field!r} has the wrong type")
        if isinstance(kind, dict):
            _check_schema(path, value, kind, field + ".")


def _strict_json(value):
    """`value` with every float that is not finite replaced by None."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _is_perplexity(value):
    """A number, or None for a perplexity that is not finite."""
    return value is None or (isinstance(value, (int, float)) and not isinstance(value, bool))


def _check_training(path, training):
    """Training metadata, if any: an object whose ``best_dev_perplexity``
    and ``history`` entries ``[batch, perplexity, lr_scale]``, where given,
    hold a number or null as the perplexity."""
    if training is None:
        return
    history = training.get("history", []) if isinstance(training, dict) else None
    if not (isinstance(history, list) and _is_perplexity(training.get("best_dev_perplexity"))
            and all(isinstance(entry, list) and len(entry) == 3 and _is_perplexity(entry[1])
                    for entry in history)):
        raise ModelFormatError(f"{path}: model header field 'training' has the wrong type")


def _payload_dtype(precision):
    return np.dtype("<f8") if precision == "double" else np.dtype("<f4")


def save_model(path, network, training=None):
    """Write the model atomically (temp file + rename)."""
    dtype = _payload_dtype(network.precision)
    index = []
    offset = 0
    blocks = []
    for block, name, part in file_blocks(network.desc, network.params):
        value = network.params[name][part]
        data = np.ascontiguousarray(value, dtype=dtype).tobytes()
        index.append(
            {"name": block, "shape": list(value.shape), "offset": offset, "nbytes": len(data)}
        )
        blocks.append(data)
        offset += len(data)

    header = {
        "format_version": FORMAT_VERSION,
        "precision": network.precision,
        "architecture": serialize_description(network.desc),
        "vocabulary": {
            "words": network.vocab.words,
            "counts": [int(c) for c in network.vocab.counts],
        },
        "classes": {
            "num_classes": network.classes.num_classes,
            "class_of": [int(c) for c in network.classes.class_of],
            "membership": [float(p) for p in network.classes.membership],
        },
        "parameters": index,
        "training": _strict_json(training),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              allow_nan=False).encode("utf-8")
    prefix = MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes
    pad = (-len(prefix)) % _ALIGN

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".classlm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(prefix)
            f.write(b"\0" * pad)
            for data in blocks:
                f.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _check_blocks(path, index, expected, itemsize, payload_len):
    """Every block's shape and byte length as the architecture implies, the
    block inside the payload and apart from every other block."""
    for i, entry in enumerate(index):
        name, offset, nbytes = entry["name"], entry["offset"], entry["nbytes"]
        shape = tuple(entry["shape"])
        if shape != expected[name]:
            raise ModelFormatError(
                f"{path}: parameter {name!r} has shape {shape}, architecture"
                f" implies {expected[name]}"
            )
        field = f"model header field 'parameters[{i}].offset'"
        if offset < 0:
            raise ModelFormatError(f"{path}: {field} of parameter {name!r} is negative ({offset})")
        if nbytes != int(np.prod(shape)) * itemsize or offset + nbytes > payload_len:
            raise ModelFormatError(
                f"{path}: payload truncated; parameter {name!r} incomplete ({field} {offset}"
                f" and nbytes {nbytes} against {payload_len} payload bytes)")
    end, last = 0, None
    for i, entry in sorted(enumerate(index), key=lambda pair: pair[1]["offset"]):
        if entry["offset"] < end:
            raise ModelFormatError(
                f"{path}: model header field 'parameters[{i}].offset' of parameter"
                f" {entry['name']!r} overlaps the bytes of parameter {last!r}")
        end, last = entry["offset"] + entry["nbytes"], entry["name"]


def load_model(path):
    """Read a model file; returns ``(network, training_metadata)``, in which
    a perplexity that was not finite reads None.

    A load decodes the JSON header once and builds the vocabulary straight
    from its stored tables.  It reads each payload byte once, straight into
    its slice of the parameter arrays, in pieces of ``_PIECE_BYTES``; each
    piece is checked for finiteness while it is still in cache.  At its
    peak it holds about one copy of the parameters, and never a buffer of
    the whole payload.

    Raises :class:`ModelFormatError` on unknown versions, headers with a
    missing or mistyped field or a vocabulary table whose length differs
    from the vocabulary, a word table that does not start with the
    reserved tokens, repeats a word (the reserved tokens included) or holds
    a negative count, training metadata whose perplexities are neither
    numbers nor null, an architecture that does not parse or validate
    (naming its first violation), truncated payloads (naming the first
    incomplete parameter), parameter blocks at a negative offset or
    overlapping another (naming the offset field and the parameter) and
    parameters holding NaN or infinity.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header, payload_start = _read_header(path, f, size)
        desc, vocab, classes, shapes = _check_header(path, header)
        params = _read_params(path, f, header, desc, shapes, payload_start, size)
    network = Network(desc, vocab, classes, params, header["precision"])
    return network, header.get("training")


def _read_header(path, f, size):
    """The decoded JSON header and the file offset of the payload; the
    header length is checked against the file size before it is read."""
    prefix = f.read(len(MAGIC) + 8)
    if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    (header_len,) = struct.unpack_from("<Q", prefix, len(MAGIC))
    header_end = len(prefix) + header_len
    raw = f.read(header_len) if header_end <= size else b""  # nothing past the end
    if len(raw) != header_len:
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ModelFormatError(f"{path}: unreadable header: {err}")
    return header, header_end + ((-header_end) % _ALIGN)


def _check_header(path, header):
    """The architecture, vocabulary, classes and expected parameter shapes
    of a header whose every field is present, typed and consistent."""
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: model header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model format version {version!r}"
            f" (this build reads version {FORMAT_VERSION})"
        )
    _check_schema(path, header, _HEADER_SCHEMA)
    for i, entry in enumerate(header["parameters"]):
        _check_schema(path, entry, _PARAMETER_SCHEMA, f"parameters[{i}].")
    _check_training(path, header.get("training"))
    precision = header["precision"]
    if precision not in ("double", "single"):
        raise ModelFormatError(f"{path}: unknown precision {precision!r}")

    words = header["vocabulary"]["words"]
    counts = header["vocabulary"]["counts"]
    cls = header["classes"]
    for field, values in (("vocabulary.counts", counts), ("classes.class_of", cls["class_of"]),
                          ("classes.membership", cls["membership"])):
        if len(values) != len(words):
            raise ModelFormatError(f"{path}: model header field {field!r} has {len(values)}"
                                   f" entries for {len(words)} vocabulary words")
    if cls["num_classes"] > len(words):  # classes are non-empty
        raise ModelFormatError(f"{path}: model header field 'classes.num_classes' is"
                               f" {cls['num_classes']}, more than {len(words)} vocabulary words")
    arrays = {}
    for key, dtype in (("class_of", np.int64), ("membership", np.float64)):
        try:
            arrays[key] = np.array(cls[key], dtype=dtype)
        except OverflowError:
            raise ModelFormatError(f"{path}: model header field 'classes.{key}' holds a number"
                                   f" outside {np.dtype(dtype).name}") from None
    try:
        vocab = Vocabulary.from_table(words, counts)
        classes = ClassMap(arrays["class_of"], arrays["membership"], cls["num_classes"])
    except ValueError as err:
        raise ModelFormatError(f"{path}: {err}")
    try:
        desc = parse_description(header["architecture"])
    except DescriptionError as err:
        raise ModelFormatError(f"{path}: model architecture: {err}")
    violations = validate_description(desc)
    if violations:
        raise ModelFormatError(f"{path}: model architecture: {violations[0]}")

    shapes = parameter_shapes(desc, vocab, classes)
    expected = [block for block, _, _ in file_blocks(desc, shapes)]
    listed = [entry["name"] for entry in header["parameters"]]
    if listed != expected:
        raise ModelFormatError(
            f"{path}: parameter index does not match the architecture"
            f" (expected {expected}, found {listed})"
        )
    return desc, vocab, classes, shapes


def _read_params(path, f, header, desc, shapes, payload_start, size):
    """Every block read straight into its part of its parameter's array,
    after the block shapes and offsets are checked, one piece of
    ``_PIECE_BYTES`` at a time; each piece is checked for finiteness right
    after its read, while it is still in cache."""
    index = header["parameters"]
    dtype = _payload_dtype(header["precision"])
    blocks = file_blocks(desc, shapes)
    block_shapes = {block: shapes[name][len(part):] for block, name, part in blocks}
    _check_blocks(path, index, block_shapes, dtype.itemsize, max(0, size - payload_start))
    params = {name: np.empty(shape, dtype=dtype) for name, shape in shapes.items()}
    step = _PIECE_BYTES // dtype.itemsize
    with np.errstate(over="ignore"):
        for entry, (block, name, part) in zip(index, blocks):
            value = params[name][part].reshape(-1)  # a view: blocks are contiguous
            f.seek(payload_start + entry["offset"])
            for start in range(0, value.size, step):
                piece = value[start:start + step]
                if f.readinto(memoryview(piece).cast("B")) != piece.nbytes:
                    raise ModelFormatError(
                        f"{path}: payload truncated; parameter {block!r} incomplete")
                # checked while cached: a finite sum means finite elements, and a
                # sum that overflows from finite elements is rechecked one by one
                if not math.isfinite(piece.sum()) and not np.isfinite(piece).all():
                    raise ModelFormatError(f"{path}: parameter {block!r} has non-finite values")
    if not dtype.isnative:
        params = {name: value.astype(dtype.newbyteorder("=")) for name, value in params.items()}
    return params
