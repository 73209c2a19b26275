"""Versioned, human-readable model files.

Layout (line oriented, utf-8):

    turnout-model v1
    algorithm: <an id in classifiers.ALGORITHMS>
    fingerprint: <sha-256 of the canonical schema text>
    params: k=<int> alpha=<float repr> min-samples=<int> max-depth=<int | none>
    schema-lines: <n>
    <n lines of canonical schema text>
    payload-lines: <n>
    <n payload lines, algorithm specific>
    end

This module reads and writes that envelope only, with each params key
exactly once.  The payload grammar lives with each model class in
:mod:`turnout.classifiers`: ``payload`` writes the lines, and the class
method ``from_payload`` reads them back into a model, rejecting anything
malformed with ``ModelFileError``.

The stored fingerprint must match the embedded schema, and a loaded
model refuses to predict data carrying any other schema fingerprint.
Loading a round-tripped model reproduces bit-identical predictions.
"""

from __future__ import annotations

from pathlib import Path

from .classifiers import REGISTRY, Hyperparams, TrainedModel
from .data import parse_schema
from .errors import ModelFileError, SchemaError, not_utf8

FORMAT_LINE = "turnout-model v1"


def _params_line(p: Hyperparams) -> str:
    depth = "none" if p.tree_max_depth is None else str(p.tree_max_depth)
    return f"params: k={p.knn_k} alpha={p.nb_alpha!r} min-samples={p.tree_min_samples} max-depth={depth}"


def model_to_text(model: TrainedModel) -> str:
    """Serialise a trained model to the documented text format."""
    schema_lines = model.schema.to_text().splitlines()
    payload = model.payload()
    lines = [
        FORMAT_LINE,
        f"algorithm: {model.algorithm}",
        f"fingerprint: {model.fingerprint}",
        _params_line(model.params),
        f"schema-lines: {len(schema_lines)}",
        *schema_lines,
        f"payload-lines: {len(payload)}",
        *payload,
        "end",
    ]
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ModelFileError(f"model file truncated: missing {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def keyed(self, key: str) -> str:
        line = self.next(key)
        prefix = key + ": "
        if not line.startswith(prefix):
            raise ModelFileError(f"expected {key!r} line, got {line!r}")
        return line[len(prefix) :]


def _count(text: str, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ModelFileError(f"bad {what} count: {text!r}") from None
    if n < 0:
        raise ModelFileError(f"bad {what} count: {text!r}")
    return n


def _parse_params(text: str) -> Hyperparams:
    fields: dict[str, str] = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ModelFileError(f"malformed params token {token!r}")
        if key in fields or key not in ("k", "alpha", "min-samples", "max-depth"):
            raise ModelFileError(f"unknown or repeated params key in {token!r}")
        fields[key] = value
    try:
        depth = fields["max-depth"]
        return Hyperparams(
            knn_k=int(fields["k"]),
            nb_alpha=float(fields["alpha"]),
            tree_min_samples=int(fields["min-samples"]),
            tree_max_depth=None if depth == "none" else int(depth),
        )
    except (KeyError, ValueError) as exc:
        raise ModelFileError(f"bad params line: {exc}") from None


def model_from_text(text: str) -> TrainedModel:
    """Parse the documented model format; anything off is ModelFileError."""
    reader = _Reader(text)
    header = reader.next("format line")
    if header != FORMAT_LINE:
        raise ModelFileError(f"unsupported model format: {header!r}")
    algorithm = reader.keyed("algorithm")
    if algorithm not in REGISTRY:
        raise ModelFileError(f"unknown algorithm {algorithm!r}")
    fingerprint = reader.keyed("fingerprint")
    params = _parse_params(reader.keyed("params"))
    n_schema = _count(reader.keyed("schema-lines"), "schema-lines")
    schema_text = "\n".join(reader.next("schema line") for _ in range(n_schema)) + "\n"
    try:
        schema = parse_schema(schema_text)
    except SchemaError as exc:
        raise ModelFileError(f"embedded schema is invalid: {exc}") from None
    if schema.fingerprint() != fingerprint:
        raise ModelFileError("stored fingerprint does not match the embedded schema")
    n_payload = _count(reader.keyed("payload-lines"), "payload-lines")
    payload = [reader.next("payload line") for _ in range(n_payload)]
    if reader.next("end marker") != "end":
        raise ModelFileError("model file truncated: missing 'end'")

    return REGISTRY[algorithm].model.from_payload(payload, schema, params)


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(not_utf8("model file", path, exc)) from None
    return model_from_text(text)
