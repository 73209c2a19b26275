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
exactly once; ``load_model`` parses a file's ``read_blocks`` reads as
they come.  The payload grammar lives with each model class in
:mod:`turnout.classifiers`: ``payload`` writes the lines, ``from_payload``
parses them (prefixes, integers, field and line counts) and the model's
constructor checks the rest; a ``ValueError`` from the constructor is
reported as a ``ModelFileError`` with the same message.

The stored fingerprint must match the embedded schema, and a loaded
model refuses to predict data carrying any other schema fingerprint.
Loading a round-tripped model reproduces bit-identical predictions.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from .classifiers import REGISTRY, Hyperparams, TrainedModel
from .data import parse_schema, read_blocks, text_lines
from .errors import ModelFileError, SchemaError

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
        f"fingerprint: {model.schema.fingerprint()}",
        _params_line(model.params),
        f"schema-lines: {len(schema_lines)}",
        *schema_lines,
        f"payload-lines: {len(payload)}",
        *payload,
        "end",
    ]
    return "\n".join(lines) + "\n"


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


def model_from_text(text: str | Iterable[str]) -> TrainedModel:
    """Parse the documented model format, a str after a leading byte-order
    mark or ``read_blocks``' reads; anything off, a nonblank line after
    ``end`` included, is ModelFileError."""
    lines = text_lines(text)

    def take(what: str) -> str:
        line = next(lines, None)
        if line is None:
            raise ModelFileError(f"model file truncated: missing {what}")
        return line

    def keyed(key: str) -> str:
        line = take(key)
        if not line.startswith(key + ": "):
            raise ModelFileError(f"expected {key!r} line, got {line!r}")
        return line[len(key) + 2 :]

    header = take("format line")
    if header != FORMAT_LINE:
        raise ModelFileError(f"unsupported model format: {header!r}")
    algorithm = keyed("algorithm")
    if algorithm not in REGISTRY:
        raise ModelFileError(f"unknown algorithm {algorithm!r}")
    fingerprint = keyed("fingerprint")
    params = _parse_params(keyed("params"))
    n_schema = _count(keyed("schema-lines"), "schema-lines")
    schema_text = "\n".join(take("schema line") for _ in range(n_schema)) + "\n"
    try:
        schema = parse_schema(schema_text)
    except SchemaError as exc:
        raise ModelFileError(f"embedded schema is invalid: {exc}") from None
    if schema.fingerprint() != fingerprint:
        raise ModelFileError("stored fingerprint does not match the embedded schema")
    n_payload = _count(keyed("payload-lines"), "payload-lines")
    payload = [take("payload line") for _ in range(n_payload)]
    if take("end marker") != "end":
        raise ModelFileError("model file truncated: missing 'end'")
    extra = next((line for line in lines if line.strip()), None)
    if extra is not None:
        raise ModelFileError(f"unexpected line after 'end': {extra!r}")
    try:
        return REGISTRY[algorithm].from_payload(payload, schema, params)
    except ValueError as exc:  # the constructor's checks: domains, counts, node order
        raise ModelFileError(str(exc)) from None


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_text(read_blocks(path, "model file"))
