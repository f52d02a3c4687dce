"""Single-file model container: JSON header + binary parameter payload.

Byte layout:

    bytes 0..3    magic ``CLMF``
    bytes 4..11   header length H, little-endian unsigned 64-bit
    bytes 12..12+H  UTF-8 JSON header (canonical: sorted keys, no spaces)
    padding to the next 16-byte boundary
    parameter payload (little-endian IEEE floats, one block per parameter)

The header records the format version, the architecture description text,
the vocabulary and class tables, a parameter index (name, shape, offset,
byte length) and optional training metadata.  Serialization is canonical,
so saving, loading and saving again produces a byte-identical file; the
payload stores parameters bit-exactly, so a reloaded model scores any
sentence identically to the saved one.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .architecture import parse_description, serialize_description
from .classing import ClassMap
from .network import Network, parameter_shapes
from .vocabulary import RESERVED, Vocabulary

__all__ = ["FORMAT_VERSION", "ModelFormatError", "load_model", "save_model"]

MAGIC = b"CLMF"
FORMAT_VERSION = 1
_ALIGN = 16


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
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise ModelFormatError(f"{path}: model header field {field!r} has the wrong type")
        if isinstance(kind, dict):
            _check_schema(path, value, kind, field + ".")


def _payload_dtype(precision):
    return np.dtype("<f8") if precision == "double" else np.dtype("<f4")


def save_model(path, network, training=None):
    """Write the model atomically (temp file + rename)."""
    dtype = _payload_dtype(network.precision)
    index = []
    offset = 0
    blocks = []
    for name, value in network.params.items():
        data = np.ascontiguousarray(value, dtype=dtype).tobytes()
        index.append(
            {"name": name, "shape": list(value.shape), "offset": offset, "nbytes": len(data)}
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
        "training": training,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
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


def load_model(path):
    """Read a model file; returns ``(network, training_metadata)``.

    Raises :class:`ModelFormatError` on unknown versions, headers with a
    missing or mistyped field or a vocabulary table whose length differs
    from the vocabulary, truncated payloads (naming the first
    incomplete parameter) and parameters holding NaN or infinity.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header_end = len(MAGIC) + 8 + header_len
    if header_end > len(raw):
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[len(MAGIC) + 8 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ModelFormatError(f"{path}: unreadable header: {err}")

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
    precision = header["precision"]
    if precision not in ("double", "single"):
        raise ModelFormatError(f"{path}: unknown precision {precision!r}")

    words = header["vocabulary"]["words"]
    if tuple(words[: len(RESERVED)]) != RESERVED:
        raise ModelFormatError(f"{path}: vocabulary does not start with the reserved tokens")
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
    try:
        vocab = Vocabulary(words[len(RESERVED):], dict(zip(words, counts)))
        classes = ClassMap(cls["class_of"], cls["membership"], cls["num_classes"])
    except ValueError as err:
        raise ModelFormatError(f"{path}: {err}")
    desc = parse_description(header["architecture"])

    expected = parameter_shapes(desc, vocab, classes)
    index = header["parameters"]
    listed = [entry["name"] for entry in index]
    if listed != list(expected):
        raise ModelFormatError(
            f"{path}: parameter index does not match the architecture"
            f" (expected {list(expected)}, found {listed})"
        )

    payload_start = header_end + ((-header_end) % _ALIGN)
    payload = raw[payload_start:]
    dtype = _payload_dtype(precision)
    params = {}
    for entry in index:
        name = entry["name"]
        shape = tuple(entry["shape"])
        if shape != expected[name]:
            raise ModelFormatError(
                f"{path}: parameter {name!r} has shape {shape}, architecture"
                f" implies {expected[name]}"
            )
        end = entry["offset"] + entry["nbytes"]
        if entry["nbytes"] != int(np.prod(shape)) * dtype.itemsize or end > len(payload):
            raise ModelFormatError(f"{path}: payload truncated; parameter {name!r} incomplete")
        flat = np.frombuffer(payload, dtype=dtype, count=int(np.prod(shape)),
                             offset=entry["offset"])
        params[name] = flat.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
        if not np.isfinite(params[name]).all():
            raise ModelFormatError(f"{path}: parameter {name!r} has non-finite values")

    network = Network(desc, vocab, classes, params, precision)
    return network, header.get("training")
