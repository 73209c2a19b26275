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

from collections.abc import Iterator
from operator import getitem
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, InputError, SchemaError, UsageError


def strip_bom(text: str) -> str:
    """Drop one leading UTF-8 byte-order mark, as spreadsheet exports write."""
    return text.removeprefix("\ufeff")


def read_input(path: str | Path, what: str) -> str:
    """The text of the input file ``what`` (data, schema, matrix or model
    file) after a leading UTF-8 byte-order mark, from one decode: a str
    that held U+FEFF would take 2 bytes per character."""
    try:
        raw = Path(path).read_bytes()
        bom = 3 * raw.startswith(b"\xef\xbb\xbf")
        return str(memoryview(raw)[bom:], "utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} {str(path)!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        at = exc.start + bom  # offsets count the file's bytes, the mark included
        raise InputError(f"{what} {str(path)!r} is not UTF-8: byte 0x{raw[at]:02x} "
                         f"at offset {at} ({exc.reason})") from None


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


def parse_schema(text: str) -> AttributeSchema:
    """Parse a schema document, rejecting grammar and invariant violations."""
    features: list[Attribute] = []
    target: Attribute | None = None
    seen: set[str] = set()
    for lineno, raw in enumerate(strip_bom(text).splitlines(), start=1):
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
        else:  # a sequence of records may be ragged
            lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
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
            raise DataError(f"record {n_ok}: expected {width} values, got {int(lengths[n_ok])}")
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
        """The records at integer ``indices``, in that order."""
        picked = index_array(indices, "subset indices")
        label_array = None if self.label_array is None else self.label_array[picked]
        return Dataset(self.schema, self.matrix[picked], label_array)


def index_array(values: object, what: str) -> np.ndarray:
    """``values`` as an intp array, not copied when it already is one.  A
    non-integer dtype, which the cast would truncate, is a ValueError naming
    ``what``; an empty sequence, which numpy reads as float, is accepted."""
    array = np.asarray(values)
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got {array.dtype} values")
    return array.astype(np.intp, copy=False)


_BLOCK_CHARS = 1 << 16


def _block_lines(text: str) -> Iterator[str]:
    """The lines ``text.splitlines()`` gives, split one block of about
    ``_BLOCK_CHARS`` characters at a time, so that only one block's line
    strings are alive at once.  Each block ends just after a line feed,
    which ends a line whatever comes before it, so no line boundary, not
    even a carriage return and line feed, straddles a cut."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_csv(text: str, schema: AttributeSchema, labeled: bool | None) -> Dataset:
    """Parse a comma-separated data file against ``schema``.

    The header must name every feature attribute in schema order, plus the
    target when ``labeled``.  With ``labeled=None`` the file is labeled
    exactly when its header names the features and then the target, and
    is read as unlabeled otherwise.  Cells are matched against domain
    labels after whitespace canonicalisation; anything else is rejected
    with the line number and column name.  Blank lines are skipped; cell
    order is preserved exactly.  Lines are numbered as ``str.splitlines``
    splits them, and read one block at a time.
    """
    lines = enumerate(_block_lines(strip_bom(text)), start=1)
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
