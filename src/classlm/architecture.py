"""Parsing and validation of network architecture description files.

A description is UTF-8 text with one declaration per line:

    input type=class name=class_input
    layer type=projection name=proj input=class_input size=500
    layer type=dropout name=drop1 input=proj dropout_rate=0.25
    layer type=lstm name=hidden1 input=drop1 size=1500
    layer type=softmax name=output input=drop1,hidden1

``input`` declares an id stream (``type=class`` or ``type=word``); ``layer``
declares a computation layer.  Attributes may appear in any order after the
leading keyword.  A layer with several inputs concatenates them, so its
incoming width is the sum of the input widths.  Lines starting with ``#``
and blank lines are ignored.

Layers must be declared in construction order: every ``input=`` reference
must point at an earlier line, which is also what keeps the network acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DescriptionError",
    "LayerSpec",
    "NetworkDescription",
    "parse_description",
    "serialize_description",
    "validate_description",
]

INPUT_KINDS = ("class_input", "word_input")
LAYER_KINDS = ("projection", "lstm", "gru", "tanh", "dropout", "softmax")
SIZED_KINDS = ("projection", "lstm", "gru", "tanh")
RECURRENT_KINDS = ("lstm", "gru")

_INPUT_TYPE_NAMES = {"class": "class_input", "word": "word_input"}


class DescriptionError(ValueError):
    """Malformed architecture description; message carries the line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class LayerSpec:
    """One declaration: an input stream or a computation layer."""

    kind: str
    name: str
    inputs: tuple[str, ...] = ()
    size: int | None = None
    dropout_rate: float | None = None
    line_no: int = 0


class NetworkDescription:
    """Ordered layer list plus the resolved producer -> consumer edges."""

    def __init__(self, layers):
        self.layers = tuple(layers)
        self.by_name = {spec.name: spec for spec in self.layers}
        self.consumers = {spec.name: [] for spec in self.layers}
        for spec in self.layers:
            for src in spec.inputs:
                if src in self.consumers:
                    self.consumers[src].append(spec.name)

    @property
    def output_layer(self):
        return self.layers[-1]

    def __eq__(self, other):
        return isinstance(other, NetworkDescription) and self.layers == other.layers

    def __repr__(self):
        return f"NetworkDescription({[s.name for s in self.layers]})"


def _parse_attrs(line_no, tokens):
    attrs = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq or not key or not value:
            raise DescriptionError(line_no, f"malformed attribute {tok!r} (expected key=value)")
        if key in attrs:
            raise DescriptionError(line_no, f"duplicate attribute {key!r}")
        attrs[key] = value
    return attrs


def _take(attrs, key, line_no, required=False):
    if key not in attrs:
        if required:
            raise DescriptionError(line_no, f"missing required attribute {key!r}")
        return None
    return attrs.pop(key)


def parse_description(text):
    """Parse description text into a :class:`NetworkDescription`.

    Raises :class:`DescriptionError` with the offending line number on the
    first problem found.  Validation of graph-level rules is separate; see
    :func:`validate_description`.
    """
    specs = []
    names = {}
    # lines end at "\n", "\r\n" and "\r" only, as in text mode; splitlines()
    # would also split at form feeds, U+2028 and other characters
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword not in ("input", "layer"):
            raise DescriptionError(line_no, f"unknown keyword {keyword!r}")
        attrs = _parse_attrs(line_no, tokens[1:])
        type_value = _take(attrs, "type", line_no, required=True)
        name = _take(attrs, "name", line_no, required=True)
        if name in names:
            raise DescriptionError(
                line_no, f"duplicate name {name!r} (first declared on line {names[name]})"
            )

        if keyword == "input":
            kind = _INPUT_TYPE_NAMES.get(type_value)
            if kind is None:
                raise DescriptionError(line_no, f"unknown input type {type_value!r}")
            spec = LayerSpec(kind=kind, name=name, line_no=line_no)
        else:
            if type_value not in LAYER_KINDS:
                raise DescriptionError(line_no, f"unknown layer type {type_value!r}")
            inputs = _take(attrs, "input", line_no, required=True)
            spec_inputs = tuple(s for s in inputs.split(",") if s)
            if not spec_inputs:
                raise DescriptionError(line_no, "empty input list")

            size = None
            if type_value in SIZED_KINDS:
                raw_size = _take(attrs, "size", line_no, required=True)
                try:
                    size = int(raw_size)
                except ValueError:
                    raise DescriptionError(line_no, f"size must be an integer, got {raw_size!r}")
                if size <= 0:
                    raise DescriptionError(line_no, f"size must be positive, got {size}")

            rate = None
            if type_value == "dropout":
                raw_rate = _take(attrs, "dropout_rate", line_no, required=True)
                try:
                    rate = float(raw_rate)
                except ValueError:
                    raise DescriptionError(
                        line_no, f"dropout_rate must be a number, got {raw_rate!r}"
                    )
                if not 0.0 <= rate < 1.0:
                    raise DescriptionError(line_no, f"dropout_rate must be in [0, 1), got {rate}")

            spec = LayerSpec(
                kind=type_value,
                name=name,
                inputs=spec_inputs,
                size=size,
                dropout_rate=rate,
                line_no=line_no,
            )

        if attrs:
            extra = ", ".join(sorted(attrs))
            raise DescriptionError(
                line_no, f"attribute(s) not allowed for {keyword} type={type_value}: {extra}"
            )
        specs.append(spec)
        names[name] = line_no

    if not specs:
        raise DescriptionError(0, "no layers declared")
    return NetworkDescription(specs)


def validate_description(desc):
    """Return every structural rule violation (empty list means valid).

    Checked rules:
      * no name holds a '/', which joins a layer name to a parameter name;
      * references resolve to earlier declarations (keeps the graph acyclic);
      * word/class inputs feed projection layers and nothing else;
      * projection layers consume only word/class inputs;
      * the final layer is a softmax;
      * every layer lies on a path from some input to the final layer.
    """
    violations = []
    declared = set()
    for spec in desc.layers:
        if "/" in spec.name:
            what = "input" if spec.kind in INPUT_KINDS else "layer"
            violations.append(f"line {spec.line_no}: {what} name {spec.name!r} contains '/',"
                              " which parameter names use after the layer name")
        for src in spec.inputs:
            if src not in declared:
                violations.append(
                    f"line {spec.line_no}: layer {spec.name!r} references undeclared name {src!r}"
                    " (layers must be declared in construction order)"
                )
        declared.add(spec.name)

    for spec in desc.layers:
        if spec.kind in INPUT_KINDS:
            consumers = [desc.by_name[c] for c in desc.consumers[spec.name]]
            if not any(c.kind == "projection" for c in consumers):
                violations.append(
                    f"line {spec.line_no}: input {spec.name!r} is not consumed by a"
                    " projection layer"
                )
            for c in consumers:
                if c.kind != "projection":
                    violations.append(
                        f"line {c.line_no}: {c.kind} layer {c.name!r} reads id stream"
                        f" {spec.name!r} directly; only projection layers may"
                    )
        elif spec.kind == "projection":
            for src in spec.inputs:
                producer = desc.by_name.get(src)
                if producer is not None and producer.kind not in INPUT_KINDS:
                    violations.append(
                        f"line {spec.line_no}: projection {spec.name!r} input {src!r}"
                        " is not a word or class input"
                    )

    final = desc.output_layer
    if final.kind != "softmax":
        violations.append(
            f"line {final.line_no}: final layer {final.name!r} must be a softmax,"
            f" got {final.kind}"
        )

    # Reachability: walk backwards from the final layer.
    reaches_output = {final.name}
    for spec in reversed(desc.layers):
        if spec.name in reaches_output:
            for src in spec.inputs:
                if src in desc.by_name:
                    reaches_output.add(src)
    for spec in desc.layers:
        if spec.name not in reaches_output:
            violations.append(
                f"line {spec.line_no}: layer {spec.name!r} has no path to the output layer"
            )
    return violations


def serialize_description(desc):
    """Render a description in canonical form (inverse of parse)."""
    lines = []
    for spec in desc.layers:
        if spec.kind in INPUT_KINDS:
            type_value = "class" if spec.kind == "class_input" else "word"
            lines.append(f"input type={type_value} name={spec.name}")
            continue
        parts = [f"layer type={spec.kind} name={spec.name}", "input=" + ",".join(spec.inputs)]
        if spec.size is not None:
            parts.append(f"size={spec.size}")
        if spec.dropout_rate is not None:
            rate = f"{spec.dropout_rate:g}"
            if float(rate) != spec.dropout_rate:
                rate = repr(spec.dropout_rate)  # the shortest text that parses back exactly
            parts.append(f"dropout_rate={rate}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
