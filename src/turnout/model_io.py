"""Versioned, human-readable model files.

Layout (line oriented, utf-8):

    turnout-model v1
    algorithm: <knn | naive-bayes | tree>
    fingerprint: <sha-256 of the canonical schema text>
    params: k=<int> alpha=<float repr> min-samples=<int> max-depth=<int | none>
    schema-lines: <n>
    <n lines of canonical schema text>
    payload-lines: <n>
    <n payload lines, algorithm specific>
    end

Payloads:

    knn          row: <feature indices...> <label>          (one per record)
    naive-bayes  class-counts: <count per class>
                 table <attr> <value>: <count per class>    (one per cell row)
    tree         node <i>: split <attr> children <child indices...>
                 node <i>: leaf <label> counts <count per class>
                 (node 0 is the root; children reference node indices)

The stored fingerprint must match the embedded schema, and a loaded
model refuses to predict data carrying any other schema fingerprint.
Loading a round-tripped model reproduces bit-identical predictions.
"""

from __future__ import annotations

from pathlib import Path

from .classifiers import (
    ALGORITHMS,
    Hyperparams,
    KnnModel,
    Leaf,
    NaiveBayesModel,
    Split,
    TrainedModel,
    TreeNode,
    argmax_label,
)
from .data import parse_schema
from .errors import ModelFileError, SchemaError

FORMAT_LINE = "turnout-model v1"


def _params_line(p: Hyperparams) -> str:
    depth = "none" if p.tree_max_depth is None else str(p.tree_max_depth)
    return f"params: k={p.knn_k} alpha={p.nb_alpha!r} min-samples={p.tree_min_samples} max-depth={depth}"


def _knn_payload(model: KnnModel) -> list[str]:
    return [
        "row: " + " ".join(str(v) for v in row) + f" {label}"
        for row, label in zip(model.rows.tolist(), model.labels.tolist())
    ]


def _nb_payload(model: NaiveBayesModel) -> list[str]:
    lines = ["class-counts: " + " ".join(str(c) for c in model.class_counts)]
    for j, table in enumerate(model.tables):
        for v, row in enumerate(table):
            lines.append(f"table {j} {v}: " + " ".join(str(c) for c in row))
    return lines


def _tree_payload(root: TreeNode) -> list[str]:
    # breadth first, parents before children; a node object reached through
    # two branches (shared empty-bucket leaves) is written once per reference
    nodes: list[TreeNode] = [root]
    lines: list[str] = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if isinstance(node, Split):
            first = len(nodes)
            nodes.extend(node.children)
            kids = " ".join(str(first + j) for j in range(len(node.children)))
            lines.append(f"node {i}: split {node.attribute} children {kids}")
        else:
            counts = " ".join(str(c) for c in node.counts)
            lines.append(f"node {i}: leaf {node.label} counts {counts}")
        i += 1
    return lines


def model_to_text(model: TrainedModel) -> str:
    """Serialise a trained model to the documented text format."""
    schema_lines = model.schema.to_text().splitlines()
    if model.algorithm == "knn":
        payload = _knn_payload(model.model)  # type: ignore[arg-type]
    elif model.algorithm == "naive-bayes":
        payload = _nb_payload(model.model)  # type: ignore[arg-type]
    else:
        payload = _tree_payload(model.model)  # type: ignore[arg-type]
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


def _ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise ModelFileError(f"non-integer in {what}: {text!r}") from None


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


def _load_knn(payload: list[str], domain_sizes: list[int], n_classes: int, k: int) -> KnnModel:
    n_features = len(domain_sizes)
    rows: list[tuple[int, ...]] = []
    labels: list[int] = []
    for line in payload:
        if not line.startswith("row: "):
            raise ModelFileError(f"expected 'row:' line, got {line!r}")
        values = _ints(line[len("row: ") :], "knn row")
        if len(values) != n_features + 1:
            raise ModelFileError(f"knn row has {len(values)} fields, expected {n_features + 1}")
        if any(not 0 <= v < size for v, size in zip(values, domain_sizes)):
            raise ModelFileError(f"knn row value out of domain range: {line!r}")
        if not 0 <= values[-1] < n_classes:
            raise ModelFileError(f"knn row label out of range: {line!r}")
        rows.append(tuple(values[:-1]))
        labels.append(values[-1])
    if not rows:
        raise ModelFileError("knn payload has no rows")
    return KnnModel(rows=rows, labels=labels, k=k, n_classes=n_classes,
                    domain_sizes=tuple(domain_sizes))


def _load_nb(payload: list[str], domain_sizes: list[int], n_classes: int, alpha: float) -> NaiveBayesModel:
    reader = iter(payload)
    try:
        first = next(reader)
    except StopIteration:
        raise ModelFileError("naive-bayes payload is empty") from None
    if not first.startswith("class-counts: "):
        raise ModelFileError(f"expected 'class-counts:' line, got {first!r}")
    counts = _ints(first[len("class-counts: ") :], "class counts")
    if len(counts) != n_classes:
        raise ModelFileError(f"{len(counts)} class counts for {n_classes} classes")
    if any(c < 0 for c in counts) or sum(counts) == 0:
        raise ModelFileError("class counts must be non-negative with a positive total")
    tables: list[tuple[tuple[int, ...], ...]] = []
    for j, size in enumerate(domain_sizes):
        table: list[tuple[int, ...]] = []
        for v in range(size):
            try:
                line = next(reader)
            except StopIteration:
                raise ModelFileError("naive-bayes payload truncated") from None
            prefix = f"table {j} {v}: "
            if not line.startswith(prefix):
                raise ModelFileError(f"expected {prefix!r} line, got {line!r}")
            row = _ints(line[len(prefix) :], "count table row")
            if len(row) != n_classes or any(c < 0 for c in row):
                raise ModelFileError(f"count row {line!r} needs {n_classes} non-negative counts")
            table.append(tuple(row))
        tables.append(tuple(table))
    leftovers = list(reader)
    if leftovers:
        raise ModelFileError(f"unexpected trailing payload line {leftovers[0]!r}")
    for j, table in enumerate(tables):
        for c in range(n_classes):
            if sum(row[c] for row in table) != counts[c]:
                raise ModelFileError(f"count table {j} does not sum to the class counts")
    return NaiveBayesModel(class_counts=tuple(counts), tables=tuple(tables), alpha=alpha)


def _load_tree(payload: list[str], n_features: int, domain_sizes: list[int], n_classes: int) -> TreeNode:
    parsed: list[tuple[str, list[int], list[int]]] = []
    for i, line in enumerate(payload):
        prefix = f"node {i}: "
        if not line.startswith(prefix):
            raise ModelFileError(f"expected {prefix!r} line, got {line!r}")
        body = line[len(prefix) :]
        if body.startswith("split "):
            head, sep, tail = body[len("split ") :].partition(" children ")
            kind = "split"
        elif body.startswith("leaf "):
            head, sep, tail = body[len("leaf ") :].partition(" counts ")
            kind = "leaf"
        else:
            raise ModelFileError(f"unknown tree node kind in {line!r}")
        if not sep:
            raise ModelFileError(f"malformed tree node line {line!r}")
        parsed.append((kind, _ints(head, "tree node"), _ints(tail, "tree node")))
    if not parsed:
        raise ModelFileError("tree payload has no nodes")

    def build(i: int, seen: frozenset[int]) -> TreeNode:
        if not 0 <= i < len(parsed) or i in seen:
            raise ModelFileError(f"tree node {i} is missing or cyclic")
        kind, head, tail = parsed[i]
        if kind == "leaf":
            if len(head) != 1 or len(tail) != n_classes or not 0 <= head[0] < n_classes:
                raise ModelFileError(f"leaf node {i} is malformed")
            if any(c < 0 for c in tail) or sum(tail) == 0:
                raise ModelFileError(f"leaf node {i} has an invalid class distribution")
            if head[0] != argmax_label(tail):
                raise ModelFileError(f"leaf node {i} label is not the argmax of its counts")
            return Leaf(counts=tuple(tail), label=head[0])
        if len(head) != 1 or not 0 <= head[0] < n_features:
            raise ModelFileError(f"split node {i} names an unknown attribute")
        attr = head[0]
        if len(tail) != domain_sizes[attr]:
            raise ModelFileError(
                f"split node {i} has {len(tail)} children, expected {domain_sizes[attr]}"
            )
        return Split(
            attribute=attr,
            children=tuple(build(c, seen | {i}) for c in tail),
        )

    return build(0, frozenset())


def model_from_text(text: str) -> TrainedModel:
    """Parse the documented model format; anything off is ModelFileError."""
    reader = _Reader(text)
    header = reader.next("format line")
    if header != FORMAT_LINE:
        raise ModelFileError(f"unsupported model format: {header!r}")
    algorithm = reader.keyed("algorithm")
    if algorithm not in ALGORITHMS:
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

    sizes = [a.size for a in schema.features]
    if algorithm == "knn":
        model: KnnModel | NaiveBayesModel | TreeNode = _load_knn(
            payload, sizes, schema.n_classes, params.knn_k
        )
    elif algorithm == "naive-bayes":
        model = _load_nb(payload, sizes, schema.n_classes, params.nb_alpha)
    else:
        model = _load_tree(payload, len(schema.features), sizes, schema.n_classes)
    return TrainedModel(algorithm=algorithm, schema=schema, params=params, model=model)


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_text(Path(path).read_text(encoding="utf-8"))
