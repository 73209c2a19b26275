"""Categorical dataset handling: input files, schema grammar, CSV ingestion, cross-tabs.

Every type here is immutable after construction and safe to share between
threads.  Cell values are stored as indices into the owning attribute's
domain; the text labels live only in the schema.

Schema documents are line based:

    # comment
    attribute <name>: <label> | <label> | ...
    target <name>: <label> | <label> | ...

Blank lines and ``#`` comments are ignored.  The attribute name is
everything between the keyword and the first ``:``; domain labels are
separated by ``|`` and keep the order they appear in.  Exactly one
``target`` line is required.  Names and labels are trimmed and internal
whitespace runs collapse to a single space; matching is otherwise exact
(no case folding).  Commas are not allowed in names or labels so that
data files never need quoting.

The package's record types, here and in :mod:`turnout.classifiers` and
:mod:`turnout.evaluation`, are ``typing.NamedTuple`` classes: read-only
fields, equality, hash and ``repr`` by value.  As tuples they also equal
a plain tuple of the same values, which no code here relies on.  A
record with invariants checks them in ``__new__``; the tuple-level
``_make`` and ``_replace`` skip those checks.  A trained model
(``classifiers.TrainedModel``) is no record: immutable, but equal only to
itself, with no ``_replace`` and no tuple behaviour.
"""

from __future__ import annotations

import codecs
from collections.abc import Iterable, Iterator
from operator import getitem
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, InputError, SchemaError, UsageError


_BLOCK_CHARS = 1 << 16
# every character ``str.splitlines`` ends a line at, the most common first
_LINE_BOUNDARIES = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def read_blocks(path: str | Path, what: str) -> Iterator[str]:
    """The text of the input file ``what`` (data, schema, matrix or model
    file) after a leading UTF-8 byte-order mark, one str per ``_BLOCK_CHARS``
    bytes read, through one incremental decoder.  A file that is not UTF-8
    is refused at the read that holds its first byte that does not decode,
    with that byte's offset in the file; the file is closed however reading ends."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0  # the file's bytes before this chunk
    try:
        with open(path, "rb") as file:
            while True:
                chunk = file.read(_BLOCK_CHARS)
                done = read - len(decoder.getstate()[0])  # the bytes decoded to text
                try:
                    text = decoder.decode(chunk, final=not chunk)
                except UnicodeDecodeError as exc:
                    # exc.object is the bytes the decoder held back, then the chunk
                    raise InputError(f"{what} {str(path)!r} is not UTF-8: byte "
                                     f"0x{exc.object[exc.start]:02x} at offset "
                                     f"{done + exc.start} ({exc.reason})") from None
                if not chunk:
                    break
                read += len(chunk)
                # the text starts the file, even when a read split the mark
                yield text if done else text.removeprefix("\ufeff")
    except OSError as exc:
        raise InputError(f"cannot read {what} {str(path)!r}: {exc}") from None


def text_lines(text: str | Iterable[str]) -> Iterator[str]:
    """The lines ``str.splitlines`` gives for the whole text: a str after a
    leading byte-order mark, taken ``_BLOCK_CHARS`` characters at a time,
    or ``read_blocks``' reads.  Each chunk's text up to its last line
    boundary (not a final ``\\r``, which may start a ``\\r\\n``) is split and
    the rest carried into the next chunk, so only about one chunk's lines are alive."""
    if isinstance(text, str):
        whole = text.removeprefix("\ufeff")
        text = (whole[i : i + _BLOCK_CHARS] for i in range(0, len(whole), _BLOCK_CHARS))
    tail: list[str] = []  # the text after the last line boundary
    for chunk in text:
        end, cut = len(chunk) - chunk.endswith("\r"), 0
        for boundary in _LINE_BOUNDARIES:  # each searched only past the last one found
            cut = max(cut, chunk.rfind(boundary, cut, end) + 1)
        if cut:
            yield from "".join([*tail, chunk[:cut]]).splitlines()
            tail = []
        tail.append(chunk[cut:])
    yield from "".join(tail).splitlines()


def canonical_label(text: str) -> str:
    """Trim and collapse internal whitespace; no other normalisation."""
    return " ".join(text.split())


class Attribute(NamedTuple("Attribute", [("name", str), ("values", tuple[str, ...])])):
    """A named categorical attribute with an ordered, closed domain."""

    __slots__ = ()

    def __new__(cls, name: str, values: tuple[str, ...]) -> Attribute:
        if not name:
            raise SchemaError("attribute name must be nonempty")
        if "," in name or "|" in name:
            raise SchemaError(f"attribute name {name!r} may not contain ',' or '|'")
        if len(values) < 2:
            raise SchemaError(
                f"attribute {name!r} needs at least 2 domain labels, got {len(values)}"
            )
        for label in values:
            if not label:
                raise SchemaError(f"attribute {name!r} has an empty domain label")
            if "," in label or "|" in label:
                raise SchemaError(f"label {label!r} may not contain ',' or '|'")
        if len(set(values)) != len(values):
            raise SchemaError(f"attribute {name!r} has duplicate domain labels")
        return super().__new__(cls, name, values)

    @property
    def size(self) -> int:
        return len(self.values)


class AttributeSchema(NamedTuple("AttributeSchema", [("features", tuple[Attribute, ...]),
                                                     ("target", Attribute)])):
    """Ordered feature attributes plus one target attribute."""

    __slots__ = ()

    def __new__(cls, features: tuple[Attribute, ...], target: Attribute) -> AttributeSchema:
        if not features:
            raise SchemaError("schema needs at least one feature attribute")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature attribute names")
        if target.name in names:
            raise SchemaError(f"target {target.name!r} is also a feature attribute")
        return super().__new__(cls, features, target)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self.target.values

    @property
    def n_classes(self) -> int:
        return len(self.target.values)

    def feature_index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise UsageError(f"unknown attribute {name!r}")

    def to_text(self) -> str:
        """Canonical schema document; ``parse_schema`` round-trips it."""
        lines = [f"attribute {f.name}: {' | '.join(f.values)}" for f in self.features]
        lines.append(f"target {self.target.name}: {' | '.join(self.target.values)}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        """SHA-256 of the canonical schema text, as 64 hex digits; names and
        order both count.  :mod:`turnout.sha256` computes it in pure Python,
        so no command loads OpenSSL; it is imported here, since only model
        files and schema mismatches need it."""
        from .sha256 import sha256_hex

        return sha256_hex(self.to_text().encode("utf-8"))


def parse_schema(text: str | Iterable[str]) -> AttributeSchema:
    """Parse a schema document (a str or ``read_blocks``' reads), rejecting
    grammar and invariant violations."""
    features: list[Attribute] = []
    target: Attribute | None = None
    seen: set[str] = set()
    for lineno, raw in enumerate(text_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise SchemaError(f"line {lineno}: expected '<keyword> <name>: <labels>'")
        head = canonical_label(head)
        if head.startswith("attribute "):
            kind, name = "attribute", head[len("attribute ") :]
        elif head.startswith("target "):
            kind, name = "target", head[len("target ") :]
        else:
            raise SchemaError(f"line {lineno}: lines must start with 'attribute' or 'target'")
        labels = tuple(canonical_label(part) for part in tail.split("|"))
        try:
            attr = Attribute(name=name, values=labels)
        except SchemaError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
        if attr.name in seen:
            raise SchemaError(f"line {lineno}: duplicate attribute name {attr.name!r}")
        seen.add(attr.name)
        if kind == "target":
            if target is not None:
                raise SchemaError(f"line {lineno}: more than one target attribute")
            target = attr
        else:
            features.append(attr)
    if target is None:
        raise SchemaError("schema has no target attribute")
    return AttributeSchema(features=tuple(features), target=target)


class Dataset:
    """Immutable record table.

    ``matrix`` holds the records as one read-only ``(n, d)`` integer array
    of domain indices, one column per feature attribute in schema order.
    ``label_array`` holds the target index per record, or is ``None`` for
    a uniformly unlabeled dataset; a mix is unrepresentable.

    The one constructor validates every cell of ``rows`` and ``labels``,
    with vector comparisons, and copies them; ``parse_csv`` and ``subset``
    build through it too, so every dataset has been checked.  Two
    datasets are equal when their schemas, records and labels are.
    """

    schema: AttributeSchema
    matrix: np.ndarray
    label_array: np.ndarray | None

    def __init__(self, schema: AttributeSchema, rows: tuple[tuple[int, ...], ...] | np.ndarray,
                 labels: tuple[int, ...] | np.ndarray | None) -> None:
        features = schema.features
        width = len(features)
        if isinstance(rows, np.ndarray) and rows.ndim == 2:  # one width, no per-record call
            lengths = np.full(len(rows), rows.shape[1], dtype=np.intp)
        else:  # a sequence of records may be ragged, or hold a record that is no sequence
            lengths = np.fromiter(map(_width, rows), dtype=np.intp, count=len(rows))
        short = np.flatnonzero(lengths != width)
        # records before the first one of the wrong width are checked first,
        # so the error names the earliest failing record
        n_ok = int(short[0]) if short.size else len(rows)
        # copied, so no caller holds a writable view of the table
        matrix = index_array(rows[:n_ok], "record values").reshape(n_ok, width).copy()
        sizes = np.array([f.size for f in features], dtype=np.intp)
        bad = (matrix < 0) | (matrix >= sizes)
        if bad.any():
            i, j = divmod(int(bad.argmax()), width)
            raise DataError(
                f"record {i}: index {int(matrix[i, j])} out of range for "
                f"attribute {features[j].name!r}"
            )
        if short.size:
            got = int(lengths[n_ok]) if lengths[n_ok] >= 0 else repr(rows[n_ok])
            raise DataError(f"record {n_ok}: expected {width} values, got {got}")
        label_array = None
        if labels is not None:
            if len(labels) != len(rows):
                raise DataError(
                    f"{len(labels)} labels for {len(rows)} records; "
                    "records must be uniformly labeled or uniformly unlabeled"
                )
            label_array = index_array(labels, "labels").reshape(len(labels)).copy()
            bad_labels = np.flatnonzero((label_array < 0) | (label_array >= schema.target.size))
            if bad_labels.size:
                i = int(bad_labels[0])
                raise DataError(f"record {i}: label index {int(label_array[i])} out of range")
        matrix.flags.writeable = False
        if label_array is not None:
            label_array.flags.writeable = False
        vars(self).update(schema=schema, matrix=matrix, label_array=label_array)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def labeled(self) -> bool:
        return self.label_array is not None

    def _key(self) -> tuple[AttributeSchema, bytes, bytes | None]:
        # intp arrays of the width the schema fixes: equal bytes, equal arrays
        labels = None if self.label_array is None else self.label_array.tobytes()
        return self.schema, self.matrix.tobytes(), labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        labels = None if self.label_array is None else self.label_array.tolist()
        return (f"Dataset(schema={self.schema!r}, matrix={self.matrix.tolist()!r}, "
                f"label_array={labels!r})")

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The records at integer ``indices`` in 0..n-1, in that order."""
        picked = index_array(indices, "subset indices")
        outside = picked[(picked < 0) | (picked >= self.n)]
        if outside.size:
            raise ValueError(f"subset index {outside[0]} is outside 0..{self.n - 1}")
        label_array = None if self.label_array is None else self.label_array[picked]
        return Dataset(self.schema, self.matrix[picked], label_array)


def _width(record: object) -> int:
    """The number of values in ``record``, or -1 when it is no sequence."""
    try:
        return len(record)
    except TypeError:
        return -1


def index_array(values: object, what: str) -> np.ndarray:
    """``values`` as an intp array, not copied when it already is one.  A
    non-integer dtype, which the cast would truncate, is a ValueError naming
    ``what``; an empty sequence, which numpy reads as float, is accepted."""
    array = np.asarray(values)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got {array.dtype} values")
    return array.astype(np.intp, copy=False)


def parse_csv(text: str | Iterable[str], schema: AttributeSchema, labeled: bool | None) -> Dataset:
    """Parse a comma-separated data file against ``schema``.

    ``text`` is a str or ``read_blocks``' reads, split by ``text_lines``.

    The header must name every feature attribute in schema order, plus the
    target when ``labeled``.  With ``labeled=None`` the file is labeled
    exactly when its header names the features and then the target, and
    is read as unlabeled otherwise.  Cells are matched against domain
    labels after whitespace canonicalisation; anything else is rejected
    with the line number and column name.  Blank lines are skipped; cell
    order is preserved exactly.  Lines are numbered as ``str.splitlines``
    splits the whole text.
    """
    lines = enumerate(text_lines(text), start=1)
    # the first nonblank line; the record loop goes on from the line after it
    header_line = next((line for _, line in lines if line.strip()), None)
    if header_line is None:
        raise DataError("data file has no header line")
    header = [canonical_label(cell) for cell in header_line.split(",")]
    expected = list(schema.feature_names)
    columns: list[Attribute] = list(schema.features)
    if labeled is None:
        labeled = header == [*expected, schema.target.name]
    if labeled:
        expected.append(schema.target.name)
        columns.append(schema.target)
    if header != expected:
        raise DataError(f"header mismatch: expected {expected}, got {header}")

    # each column's canonical labels, the only ones a canonicalised cell can
    # match; a line of canonical labels only is looked up whole, others cell by cell
    exact = [{v: i for i, v in enumerate(a.values) if canonical_label(v) == v} for a in columns]
    # every cell's domain index, record after record
    indices: list[int] = []
    for lineno, line in lines:
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise DataError(f"line {lineno}: expected {len(columns)} columns, got {len(cells)}")
        try:
            indices += tuple(map(getitem, exact, cells))  # the whole line or nothing
            continue
        except KeyError:
            pass
        for attr, index_of, cell in zip(columns, exact, cells):
            value = canonical_label(cell)
            if not value:
                raise DataError(f"line {lineno}: empty value in column {attr.name!r}")
            try:
                indices.append(index_of[value])
            except KeyError:
                raise DataError(
                    f"line {lineno}: unknown value {value!r} for attribute {attr.name!r}"
                ) from None
    table = np.array(indices, dtype=np.intp).reshape(-1, len(columns))
    del indices  # freed before the constructor copies the table
    if not labeled:
        return Dataset(schema, table, None)
    d = len(schema.features)
    return Dataset(schema, table[:, :d], table[:, d])


def dataset_to_csv(data: Dataset) -> str:
    """Serialise back to the CSV form ``parse_csv`` reads (lossless)."""
    header = list(data.schema.feature_names)
    if data.labeled:
        header.append(data.schema.target.name)
    lines = [",".join(header)]
    labels = None if data.label_array is None else data.label_array.tolist()
    for i, row in enumerate(data.matrix.tolist()):
        cells = [data.schema.features[j].values[v] for j, v in enumerate(row)]
        if labels is not None:
            cells.append(data.schema.target.values[labels[i]])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def class_counts(data: Dataset) -> tuple[int, ...]:
    """Records per target class, in class order; zero counts included."""
    if data.label_array is None:
        raise UsageError("class counts need a labeled dataset")
    counts = np.bincount(data.label_array, minlength=data.schema.n_classes)
    return tuple(int(c) for c in counts)


def tally(cells: np.ndarray, labels: np.ndarray, n_cells: int, n_classes: int) -> np.ndarray:
    """Count table of (cell, class) pairs, shape (n_cells, n_classes), from
    one ``np.bincount``; ``labels`` broadcasts to the shape of ``cells``."""
    keys = cells * n_classes
    keys += labels
    return np.bincount(keys.ravel(), minlength=n_cells * n_classes).reshape(n_cells, n_classes)


def crosstab(data: Dataset, attribute: str) -> np.ndarray:
    """Attribute-by-class count table, shape (domain size, class count).

    Rows follow the attribute's domain order, columns the class order.
    The target itself is rejected: it already forms the column axis.
    """
    if data.label_array is None:
        raise UsageError("crosstab needs a labeled dataset")
    if attribute == data.schema.target.name:
        raise UsageError("crosstab is taken against the target; pass a feature attribute")
    j = data.schema.feature_index(attribute)
    return tally(data.matrix[:, j], data.label_array,
                 data.schema.features[j].size, data.schema.n_classes)
