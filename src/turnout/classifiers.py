"""Three categorical classifiers behind one batch contract.

Each algorithm trains on a labeled :class:`~turnout.data.Dataset` and
predicts with one batch kernel: an ``(m, d)`` array of encoded records
in, an ``(m, k)`` matrix of class probabilities out, each value checked
against its attribute's domain.  ``REGISTRY`` is the one table of
algorithms: each record names a trainer and a model class.  A trained
model is one object, an instance of its algorithm's subclass of
``TrainedModel``: it holds the schema and hyperparameters it was trained
under and its tables, predicts, writes its model-file payload and reads
it back.  The one per-record entry point,
``TrainedModel.predict_proba_row``, calls the kernel on a batch of one,
so a record gets the same bits alone as in a batch.  Models are
immutable once trained, so prediction is a pure function of (model,
records); cross-validation runs its folds one after another (see
:mod:`turnout.evaluation`).

KNN searches once per distinct query, in blocks of about
``KNN_BLOCK_CELLS`` query-by-training-record distances, a fixed budget
that keeps its working buffers under about 1 MB whatever the batch size.

Tie rules are part of the contract:

* ``predict_label`` breaks probability ties toward the earlier class.
* KNN breaks distance ties toward the earlier training record.
* Tree induction breaks information-gain ties toward the earlier
  attribute in schema order.  A split's score is a float with a proven
  error bound; any comparison closer than that bound is redone exactly
  on the integer counts, so ties are real ties and never float noise.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .data import AttributeSchema, Dataset, index_array, tally
from .errors import ModelFileError, SchemaMismatchError

PROBA_TOLERANCE = 1e-9

# distances (queries x training records) that one KNN block computes; with
# 8-byte code XORs and keys of at most 8 bytes the block's few buffers stay
# under about 1 MB
KNN_BLOCK_CELLS = 32_768


class Hyperparams(NamedTuple("Hyperparams", [
        ("knn_k", int), ("nb_alpha", float), ("tree_min_samples", int),
        ("tree_max_depth", int | None)])):
    """Hyperparameters for all three algorithms; unused ones are ignored."""

    __slots__ = ()

    def __new__(cls, knn_k: int = 5, nb_alpha: float = 1.0, tree_min_samples: int = 2,
                tree_max_depth: int | None = None) -> Hyperparams:
        if knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {knn_k}")
        if not (math.isfinite(nb_alpha) and nb_alpha >= 0.0):
            raise ValueError(f"nb_alpha (alpha) must be finite and >= 0, got {nb_alpha}")
        if tree_min_samples < 2:
            raise ValueError(f"tree_min_samples must be >= 2, got {tree_min_samples}")
        if tree_max_depth is not None and tree_max_depth < 0:
            raise ValueError(f"tree_max_depth must be >= 0, got {tree_max_depth}")
        return super().__new__(cls, knn_k, float(nb_alpha), tree_min_samples, tree_max_depth)


def predict_labels(proba: np.ndarray) -> np.ndarray:
    """Row-wise argmax of an (m, k) probability matrix; ties go to the
    earlier class.  Every row must sum to one within ``PROBA_TOLERANCE``."""
    arr = np.asarray(proba, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("empty probability vector")
    sums = arr.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > PROBA_TOLERANCE)
    if bad.size:
        raise ValueError(f"probabilities sum to {float(sums[bad[0]])!r}, not 1")
    return np.argmax(arr, axis=1)


def predict_label(proba: Sequence[float]) -> int:
    """Argmax of one probability vector; ties go to the earlier class."""
    return int(predict_labels(np.asarray(proba, dtype=np.float64).reshape(1, -1))[0])


def _records(rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """A batch of encoded records, shape (m, d) for d = len(sizes), with
    every value inside its attribute's domain ``0 .. sizes[j] - 1``."""
    batch = index_array(rows, "record values")
    width = len(sizes)
    if batch.ndim != 2 or batch.shape[1] != width:
        raise ValueError(f"records have shape {batch.shape}, model expects (m, {width})")
    bad = (batch < 0) | (batch >= sizes)
    if bad.any():
        i, j = divmod(int(bad.argmax()), width)
        raise ValueError(
            f"record {i}: value {int(batch[i, j])} is outside the domain of "
            f"attribute {j} (size {int(sizes[j])})"
        )
    return batch


def _training_labels(data: Dataset) -> np.ndarray:
    """The class of each record of a labeled, nonempty training set."""
    if data.label_array is None:
        raise ValueError("training needs a labeled dataset")
    if data.n == 0:
        raise ValueError("training needs at least one record")
    return data.label_array


def _ints(text: str, what: str) -> list[int]:
    """The integers of one model-file payload line."""
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise ModelFileError(f"non-integer in {what}: {text!r}") from None


def _bit_codes(records: np.ndarray, offsets: np.ndarray, n_words: int) -> np.ndarray:
    """Packed one-hot codes of in-domain records, shape (n_words, m).

    Attribute j with value v sets bit ``offsets[j] + v``, counted across
    ``n_words`` uint64 words; the attributes' bit ranges do not overlap,
    so each record sets exactly one bit per attribute.
    """
    word, bit = np.divmod(records + offsets, 64)
    ones = np.left_shift(np.uint64(1), bit.astype(np.uint64))
    return np.stack([
        np.bitwise_or.reduce(np.where(word == w, ones, np.uint64(0)), axis=1)
        for w in range(n_words)
    ])


def _layout(schema: AttributeSchema) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's domain size, and its first column in the one-hot
    layout that KNN's bit codes, the naive Bayes table and the tree's
    tally share: value v of attribute j is column ``offsets[j] + v``."""
    sizes = np.array([a.size for a in schema.features], dtype=np.intp)
    return sizes, np.cumsum(sizes) - sizes


class TrainedModel:
    """A trained model: the schema and hyperparameters it was trained
    under, and its algorithm's tables, which one subclass per algorithm holds.

    The subclass names its ``REGISTRY`` id in ``algorithm``, reads its
    settings from ``params`` and ``schema`` and keeps no copy of them, and
    provides ``predict_proba_batch`` ((m, k) class probabilities of (m, d)
    encoded records; a value outside its attribute's domain is a
    ValueError), ``payload`` (the model-file payload lines) and the
    classmethod ``from_payload`` (the model ``payload`` wrote; anything
    off is ModelFileError).  ``domain_sizes`` and ``_offsets`` are the
    schema's ``_layout``.  A model is immutable and equal only to itself.
    """

    algorithm: str

    def __init__(self, schema: AttributeSchema, params: Hyperparams) -> None:
        sizes, offsets = _layout(schema)
        vars(self).update(schema=schema, params=params, domain_sizes=sizes, _offsets=offsets)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    @property
    def fingerprint(self) -> str:
        return self.schema.fingerprint()

    def predict_proba_row(self, values: Sequence[int]) -> np.ndarray:
        """Probability vector for one already-encoded record: the batch
        kernel on a batch of one."""
        return self.predict_proba_batch(np.asarray(values)[np.newaxis])[0]

    def predict_proba(self, data: Dataset) -> np.ndarray:
        """Probability matrix (records x classes) for a whole dataset, in
        one batch.

        The dataset's schema must equal the one the model was trained
        under (for schemas read from text, the same as their fingerprints
        being equal); anything else is rejected outright.
        """
        if data.schema != self.schema:
            raise SchemaMismatchError(
                "dataset schema fingerprint does not match the model's "
                f"({data.schema.fingerprint()[:12]} vs {self.fingerprint[:12]})"
            )
        return self.predict_proba_batch(data.matrix)


# ---------------------------------------------------------------- KNN


class KnnModel(TrainedModel):
    """Stored training table; all work happens at prediction time.

    ``rows`` holds the encoded training records and ``labels`` their
    class indices, as (N, d) and (N,) integer arrays.  Each record is
    also kept as a packed one-hot bit code (see ``_bit_codes``): two
    records that disagree on an attribute differ in exactly two of its
    bits, so the popcount of their codes' XOR is twice their Hamming
    distance.  ``rows`` itself is read only to write the model file.
    """

    algorithm = "knn"

    def __init__(self, schema: AttributeSchema, params: Hyperparams, rows: np.ndarray,
                 labels: np.ndarray) -> None:
        super().__init__(schema, params)
        rows = _records(rows, self.domain_sizes)
        n_words = -(-int(self.domain_sizes.sum()) // 64)
        vars(self).update(rows=rows, labels=np.asarray(labels, dtype=np.intp),
                          _codes=_bit_codes(rows, self._offsets, n_words))

    def predict_proba_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vote of the min(k, N) nearest records under Hamming distance.

        Neighbors are ranked by (distance, training-row position), so ties
        are resolved toward earlier records and the result is exactly
        reproducible.  The vote is unweighted: each neighbor contributes
        1 / neighbors_used to its class.

        A query's vote depends only on its code, so each distinct code is
        searched once and the votes are expanded back to the batch.  Over
        a block of distinct codes, one XOR and ``np.bitwise_count`` per
        code word add up twice the distance to every training record.
        ``2 * distance * N + position`` is then a unique key per training
        record, so one ``np.partition`` picks the nearest set exactly,
        ties included.
        """
        queries = _records(queries, self.domain_sizes)
        n_words, n = self._codes.shape
        d, n_classes = len(self.domain_sizes), self.schema.n_classes
        used = min(self.params.knn_k, n)
        # the narrowest types that hold twice the largest distance, and the
        # largest key; the key type is named explicitly because numpy keeps
        # ``twice * n`` in the accumulator's narrow type, which wraps, or
        # raises when N itself does not fit
        twice_type = np.min_scalar_type(2 * d)
        key_type = np.int32 if (2 * d + 1) * n < 2**31 else np.int64
        positions = np.arange(n, dtype=key_type)
        codes = _bit_codes(queries, self._offsets, n_words)
        # each query's code words as one sortable scalar
        packed = np.ascontiguousarray(codes.T).view(f"V{8 * n_words}")[:, 0]
        distinct, inverse = np.unique(packed, return_inverse=True)
        codes = distinct.view(np.uint64).reshape(-1, n_words).T
        out = np.empty((codes.shape[1], n_classes), dtype=np.float64)
        block = max(1, KNN_BLOCK_CELLS // n)
        for start in range(0, codes.shape[1], block):
            q = codes[:, start : start + block, None]
            twice = np.zeros((q.shape[1], n), dtype=twice_type)
            for w in range(n_words):
                twice += np.bitwise_count(q[w] ^ self._codes[w])
            key = np.multiply(twice, n, dtype=key_type)
            key += positions
            nearest = np.partition(key, used - 1, axis=1)[:, :used] % n
            m = len(nearest)
            cells = self.labels[nearest] + n_classes * np.arange(m)[:, None]
            votes = np.bincount(cells.ravel(), minlength=m * n_classes)
            out[start : start + m] = votes.reshape(m, n_classes) / used
        return out[inverse]

    def payload(self) -> list[str]:
        """Model-file lines, one per training record:
        ``row: <feature indices...> <label>``."""
        return [
            "row: " + " ".join(str(v) for v in row) + f" {label}"
            for row, label in zip(self.rows.tolist(), self.labels.tolist())
        ]

    @classmethod
    def from_payload(cls, lines: list[str], schema: AttributeSchema,
                     params: Hyperparams) -> KnnModel:
        """The model ``payload`` wrote; anything off is ModelFileError."""
        sizes = [a.size for a in schema.features]
        rows, labels = [], []
        for line in lines:
            if not line.startswith("row: "):
                raise ModelFileError(f"expected 'row:' line, got {line!r}")
            values = _ints(line[len("row: ") :], "knn row")
            if len(values) != len(sizes) + 1:
                raise ModelFileError(f"knn row has {len(values)} fields, expected {len(sizes) + 1}")
            if any(not 0 <= v < size for v, size in zip(values, sizes)):
                raise ModelFileError(f"knn row value out of domain range: {line!r}")
            if not 0 <= values[-1] < schema.n_classes:
                raise ModelFileError(f"knn row label out of range: {line!r}")
            rows.append(values[:-1])
            labels.append(values[-1])
        if not rows:
            raise ModelFileError("knn payload has no rows")
        return cls(schema, params, rows, labels)


def train_knn(data: Dataset, params: Hyperparams) -> KnnModel:
    return KnnModel(data.schema, params, data.matrix, _training_labels(data))


# ------------------------------------------------------- Naive Bayes


class NaiveBayesModel(TrainedModel):
    """Class counts and one value/class count table.

    ``class_counts[c]`` is the number of training records of class c and
    ``counts[offsets[j] + v, c]`` how many of them have value v for
    attribute j, in the schema's ``_layout``: a (W, k) int64 table over
    the summed domain sizes W.
    """

    algorithm = "naive-bayes"

    def __init__(self, schema: AttributeSchema, params: Hyperparams, class_counts: np.ndarray,
                 counts: np.ndarray) -> None:
        super().__init__(schema, params)
        alpha, sizes = params.nb_alpha, self.domain_sizes
        # each table row's denominator, count(c) + alpha * domain size
        per_class = np.repeat(class_counts + alpha * sizes[:, None], sizes, axis=0)
        # a class with no records and alpha = 0 would divide 0 by 0; its
        # prior is 0, so its score is 0 whatever its ratio, as for alpha > 0
        ratios = np.zeros(counts.shape, dtype=np.float64)
        np.divide(counts + alpha, per_class, out=ratios, where=per_class != 0)
        vars(self).update(class_counts=class_counts, counts=counts,
                          _priors=class_counts / class_counts.sum(), _ratios=ratios)

    def predict_proba_batch(self, rows: np.ndarray) -> np.ndarray:
        """Smoothed multinomial scores, normalised to sum to one.

        score(c) = prior(c) * prod_j (count(v_j, c) + alpha)
                                     / (count(c) + alpha * domain_j)

        The product runs over the attributes in schema order, starting
        from the prior.  With alpha = 0 a value never seen with a class
        zeroes that class out; if that zeroes every class the priors are
        returned instead.
        """
        rows = _records(rows, self.domain_sizes)
        scores = np.tile(self._priors, (len(rows), 1))
        for j, offset in enumerate(self._offsets.tolist()):
            scores *= self._ratios[rows[:, j] + offset]
        mass = scores.sum(axis=1, keepdims=True)
        out = np.tile(self._priors, (len(rows), 1))
        np.divide(scores, mass, out=out, where=mass != 0.0)
        return out

    def payload(self) -> list[str]:
        """Model-file lines: ``class-counts: <count per class>``, then
        ``table <attr> <value>: <count per class>`` per table row."""
        keys = [(j, v) for j, size in enumerate(self.domain_sizes) for v in range(size)]
        return ["class-counts: " + " ".join(map(str, self.class_counts.tolist()))] + [
            f"table {j} {v}: " + " ".join(map(str, row))
            for (j, v), row in zip(keys, self.counts.tolist())
        ]

    @classmethod
    def from_payload(cls, lines: list[str], schema: AttributeSchema,
                     params: Hyperparams) -> NaiveBayesModel:
        """The model ``payload`` wrote; anything off is ModelFileError."""
        n_classes = schema.n_classes
        reader = iter(lines)
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
        if sum(counts) >= 2**63:  # the tables sum to the class counts, so they fit too
            raise ModelFileError("class counts must total less than 2**63")
        sizes = tuple(a.size for a in schema.features)
        table: list[list[int]] = []
        for j, size in enumerate(sizes):
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
                table.append(row)
        leftovers = list(reader)
        if leftovers:
            raise ModelFileError(f"unexpected trailing payload line {leftovers[0]!r}")
        start = 0
        for j, size in enumerate(sizes):
            if [sum(column) for column in zip(*table[start : start + size])] != counts:
                raise ModelFileError(f"count table {j} does not sum to the class counts")
            start += size
        return cls(schema, params, np.array(counts, dtype=np.int64),
                   np.array(table, dtype=np.int64))


def train_naive_bayes(data: Dataset, params: Hyperparams) -> NaiveBayesModel:
    """Tally value/class co-occurrence over the full declared domains."""
    labels = _training_labels(data)
    sizes, offsets = _layout(data.schema)
    k = data.schema.n_classes
    return NaiveBayesModel(data.schema, params, np.bincount(labels, minlength=k),
                           tally(data.matrix + offsets, labels[:, None], int(sizes.sum()), k))


# -------------------------------------------------------------- tree


def _split_score(tally: list[list[int]]) -> tuple[int, int]:
    """Exact surrogate for the weighted child entropy of a candidate split.

    sum_v n_v * H(child_v)  =  log2(p) - log2(q)  with
    p = prod_v n_v ** n_v   and   q = prod_{v,c} n_vc ** n_vc.

    Scores compare as log2(p1/q1) < log2(p2/q2) iff p1*q2 < p2*q1, which
    is plain big-integer arithmetic: no float rounding can flip a tie.
    """
    p = 1
    q = 1
    for row in tally:
        n_v = sum(row)
        if n_v:
            p *= n_v**n_v
        for c in row:
            if c:
                q *= c**c
    return p, q


def _score_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] < b[0] * a[1]


def _exact_split(
    table: np.ndarray, counts: np.ndarray, candidates: np.ndarray,
    offsets: np.ndarray, sizes: np.ndarray,
) -> int:
    """The candidate with the lowest exact split score, or -1 when none is
    strictly below the parent's; ties go to the earlier candidate."""
    best_j, best_score = -1, _split_score([counts.tolist()])
    for j in candidates.tolist():
        score = _split_score(table[offsets[j] : offsets[j] + sizes[j]].tolist())
        if _score_less(score, best_score):
            best_j, best_score = j, score
    return best_j


class TreeModel(TrainedModel):
    """A grown tree as one flat node table, breadth first from the root,
    node 0: the same numbering as the model file's ``node <i>`` lines.

    ``attribute[i]`` is node i's split attribute (-1 for a leaf) and
    ``children[i, v]`` the node that its records with value v go to (-1
    past the attribute's domain and on a leaf's row).  ``counts[i]`` holds
    its class counts; an empty child slot carries its parent's, and a
    split node read from a model file, which stores none, has zeros.  A
    leaf's label is the argmax of its counts, ties to the earlier class.
    A table read from a model file may share a child between parents.
    """

    algorithm = "tree"

    def __init__(self, schema: AttributeSchema, params: Hyperparams, attribute: np.ndarray,
                 children: np.ndarray, counts: np.ndarray) -> None:
        super().__init__(schema, params)
        vars(self).update(attribute=attribute, children=children, counts=counts)

    def predict_proba_batch(self, rows: np.ndarray) -> np.ndarray:
        """Move every record still at a split node one depth down per step,
        then normalise the class counts of the leaves reached."""
        rows = _records(rows, self.domain_sizes)
        node = np.zeros(len(rows), dtype=np.intp)
        live = np.arange(len(rows))
        while live.size:
            at = node[live]
            attribute = self.attribute[at]
            split = attribute >= 0
            live, at = live[split], at[split]
            node[live] = self.children[at, rows[live, attribute[split]]]
        counts = self.counts[node].astype(np.float64)
        return counts / counts.sum(axis=1, keepdims=True)

    def payload(self) -> list[str]:
        """Model-file lines, one per node of the table:
        ``node <i>: split <attr> children <child indices...>`` or
        ``node <i>: leaf <label> counts <count per class>``."""
        lines = []
        for i, (a, kids, counts, label) in enumerate(zip(
                self.attribute.tolist(), self.children.tolist(), self.counts.tolist(),
                self.counts.argmax(axis=1).tolist())):
            if a >= 0:
                lines.append(f"node {i}: split {a} children "
                             + " ".join(map(str, kids[: self.domain_sizes[a]])))
            else:
                lines.append(f"node {i}: leaf {label} counts " + " ".join(map(str, counts)))
        return lines

    @classmethod
    def from_payload(cls, lines: list[str], schema: AttributeSchema,
                     params: Hyperparams) -> TreeModel:
        """The model ``payload`` wrote; anything off is ModelFileError.
        Every node line is checked, and no path from the root may loop."""
        sizes = tuple(a.size for a in schema.features)
        n_classes, n = schema.n_classes, len(lines)
        if not lines:
            raise ModelFileError("tree payload has no nodes")
        attribute = np.full(n, -1, dtype=np.intp)
        children = np.full((n, max(sizes)), -1, dtype=np.intp)
        counts = np.zeros((n, n_classes), dtype=np.int64)
        for i, line in enumerate(lines):
            prefix = f"node {i}: "
            if not line.startswith(prefix):
                raise ModelFileError(f"expected {prefix!r} line, got {line!r}")
            body = line[len(prefix) :]
            leaf = body.startswith("leaf ")
            if leaf:
                head, sep, tail = body[len("leaf ") :].partition(" counts ")
            elif body.startswith("split "):
                head, sep, tail = body[len("split ") :].partition(" children ")
            else:
                raise ModelFileError(f"unknown tree node kind in {line!r}")
            if not sep:
                raise ModelFileError(f"malformed tree node line {line!r}")
            head, tail = _ints(head, "tree node"), _ints(tail, "tree node")
            if leaf:
                if len(head) != 1 or len(tail) != n_classes or not 0 <= head[0] < n_classes:
                    raise ModelFileError(f"leaf node {i} is malformed")
                if any(not 0 <= c < 2**63 for c in tail) or sum(tail) == 0:
                    raise ModelFileError(f"leaf node {i} has an invalid class distribution")
                if head[0] != tail.index(max(tail)):
                    raise ModelFileError(f"leaf node {i} label is not the argmax of its counts")
                counts[i] = tail
                continue
            if len(head) != 1 or not 0 <= head[0] < len(sizes):
                raise ModelFileError(f"split node {i} names an unknown attribute")
            if len(tail) != sizes[head[0]]:
                raise ModelFileError(
                    f"split node {i} has {len(tail)} children, expected {sizes[head[0]]}"
                )
            for c in tail:
                if not 0 <= c < n:
                    raise ModelFileError(f"tree node {c} is missing or cyclic")
            attribute[i] = head[0]
            children[i, : len(tail)] = tail
        # the nodes a path of t steps from the root reaches; after n steps
        # some node repeats on the path, so a nonempty set means a loop
        reached = np.zeros(1, dtype=np.intp)
        for _ in range(n):
            kids = children[reached[attribute[reached] >= 0]]
            reached = np.unique(kids[kids >= 0])
            if not reached.size:
                return cls(schema, params, attribute, children, counts)
        raise ModelFileError(f"tree node {int(reached[0])} is missing or cyclic")


def train_tree(data: Dataset, params: Hyperparams) -> TreeModel:
    """Grow an unpruned multiway tree by maximum information gain.

    A node becomes a leaf when it is pure, has fewer than
    ``tree_min_samples`` records, has no unused attributes left, sits at
    ``tree_max_depth``, or when no attribute has positive gain.  Empty
    branches get a leaf carrying the parent distribution.  No attribute
    is reused along a path.

    The tree grows one depth at a time, each depth's nodes following the
    previous depth's in the :class:`TreeModel` table.  Each record of a
    node that may still split carries that node's number, and one
    ``np.bincount`` over (node, attribute, value, class) tallies every
    such node against every attribute at once, so the numpy calls per
    tree grow with its depth, not its node count.  A node with n records scores attribute j by

        s_j = sum_v f(n_v) - sum_{v,c} f(n_vc),   f(n) = n * log2(n),

    which is n times its weighted child entropy; the parent's score is
    f(n) - sum_c f(n_c).  Each f comes from one float table per tree.
    Assuming ``np.log2`` within a conservative 4 ulp, a table entry is
    within 10u of f(n) (u = 2**-53).  A score sums at most
    T = (k + 1) * (largest domain size) signed entries whose magnitudes
    add up to at most 2 f(n), since f is superadditive, and summing them
    in any order adds at most 1.01 (T - 1) u times that.  A float score
    is thus within (2.03 T + 18) u f(n) of the exact one, and

        eps = (T + 10) * 2**-50 * n * log2(n)

    is about four times that, which also covers the rounding of eps and
    of the comparisons.  A node whose best float score is more than
    2 eps below the parent's and below every other attribute's splits on
    that attribute.  Any other node is decided exactly on its integer
    tallies with ``_split_score``/``_score_less``, over the attributes
    within 2 eps of the best that take more than one value in the node;
    so ties, and zero gain, are never settled by float order.  An
    attribute constant in a node, such as one split on above it, scores
    exactly the parent's score, so it never shows positive gain: that
    alone keeps attributes from repeating along a path, and a node whose
    near attributes are all constant is a leaf with no exact step.

    A node whose best float score is exactly 0.0 splits on it with no exact
    step: pure children score 0.0 bit for bit, each f(n_v) less f(n_v) plus
    zeros; any other split, and an open node's parent, scores at least 2 (n H
    at (1, 1)), far beyond 2 eps; and ``argmin`` takes the earliest at 0.0.
    """
    labels = _training_labels(data)
    k = data.schema.n_classes
    sizes, offsets = _layout(data.schema)
    width, d = int(sizes.sum()), len(sizes)
    n = np.arange(1, data.n + 1, dtype=np.float64)
    f = np.concatenate(([0.0], n * np.log2(n)))  # f[n] = n * log2(n)
    eps_per_f = ((k + 1) * int(sizes.max()) + 10) * 2.0**-50

    # the node table, one depth at a time: every node's class counts and
    # split attribute, and below the root its parent's node number and the
    # value that leads there from the parent
    counts_at: list[np.ndarray] = []
    attribute_at: list[np.ndarray] = []
    parent_at = [np.zeros(0, dtype=np.intp)]
    value_at = [np.zeros(0, dtype=np.intp)]
    base = 0  # node number of this depth's first node
    # the records still in play and their node at this depth; ``labels`` is
    # narrowed along with ``rows``
    rows = np.arange(data.n)
    slot = np.zeros(data.n, dtype=np.intp)
    counts = tally(slot, labels, 1, k)
    for depth in range(d + 1):
        n_node = counts.sum(axis=1)
        open_ = (counts.max(axis=1) < n_node) & (n_node >= params.tree_min_samples)
        if depth == d or (params.tree_max_depth is not None and depth >= params.tree_max_depth):
            open_[:] = False
        attribute = np.full(len(counts), -1, dtype=np.intp)
        counts_at.append(counts)
        attribute_at.append(attribute)
        nodes = open_.nonzero()[0]
        if nodes.size == 0:
            break

        # tally the records of open nodes only, renumbering those nodes 0..m-1
        keep = open_[slot]
        rows, labels = rows[keep], labels[keep]
        node_of = (np.cumsum(open_) - 1)[slot[keep]]
        m = len(nodes)
        cells = data.matrix[rows]
        cells += offsets
        cells += (node_of * width)[:, None]
        table = tally(cells, labels[:, None], m * width, k).reshape(m, width, k)
        n_open = n_node[nodes]
        score = np.add.reduceat(f[table.sum(axis=2)] - f[table].sum(axis=2), offsets, axis=1)
        parent = f[n_open] - f[counts[nodes]].sum(axis=1)
        best = score.argmin(axis=1)
        best_score = score[np.arange(m), best]
        margin = 2.0 * eps_per_f * f[n_open]
        near = score - best_score[:, None] <= margin[:, None]
        clear = (near.sum(axis=1) == 1) & (parent - best_score > margin)
        choice = np.where(clear | (best_score == 0.0), best, -1)
        # an attribute with one value present in the node scores exactly the
        # parent's score and never wins, so only the others go to the exact step
        undecided = (choice < 0).nonzero()[0]
        varied = np.add.reduceat(table[undecided].any(axis=2), offsets, axis=1) > 1
        for i, candidates in zip(undecided.tolist(), near[undecided] & varied):
            if candidates.any():
                choice[i] = _exact_split(table[i], counts[nodes[i]], candidates.nonzero()[0],
                                         offsets, sizes)

        # one child slot per value of the chosen attribute, empty ones included
        split = choice >= 0
        n_children = np.where(split, sizes[choice], 0)
        first = np.cumsum(n_children) - n_children
        attribute[nodes] = choice
        parent_of = np.repeat(np.arange(m), n_children)
        value = np.arange(len(parent_of)) - first[parent_of]
        parent_at.append(base + nodes[parent_of])
        value_at.append(value)
        base += len(attribute)
        counts = table[parent_of, offsets[choice[parent_of]] + value]
        moved = split[node_of]
        rows, labels, node_of = rows[moved], labels[moved], node_of[moved]
        slot = first[node_of] + data.matrix[rows, choice[node_of]]

    # breadth first, node i > 0 is the child of parents[i - 1] on values[i - 1]
    counts = np.concatenate(counts_at)
    parents, values = np.concatenate(parent_at), np.concatenate(value_at)
    children = np.full((len(counts), int(sizes.max())), -1, dtype=np.intp)
    children[parents, values] = np.arange(1, len(counts))
    empty = (counts[1:].sum(axis=1) == 0).nonzero()[0]
    counts[empty + 1] = counts[parents[empty]]
    return TreeModel(data.schema, params, np.concatenate(attribute_at), children, counts)


# ------------------------------------------------------ common front


class Algorithm(NamedTuple):
    """One learner: its id, its trainer, and its model class."""

    name: str
    train: Callable[[Dataset, Hyperparams], TrainedModel]
    model: type[TrainedModel]


# the one table of algorithms, in report order
REGISTRY = {m.algorithm: Algorithm(m.algorithm, t, m) for t, m in (
    (train_knn, KnnModel), (train_naive_bayes, NaiveBayesModel), (train_tree, TreeModel))}
ALGORITHMS = tuple(REGISTRY)


def train(data: Dataset, algorithm: str, params: Hyperparams | None = None) -> TrainedModel:
    """Train one of the algorithms in ``REGISTRY`` by id."""
    if algorithm not in REGISTRY:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return REGISTRY[algorithm].train(data, params or Hyperparams())
