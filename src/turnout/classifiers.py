"""Three categorical classifiers behind one batch contract.

Each algorithm trains on a labeled :class:`~turnout.data.Dataset` and
predicts with one batch kernel: an ``(m, d)`` array of encoded records
in, an ``(m, k)`` matrix of class probabilities out.  The per-record
entry points (``KnnModel.predict_proba``, ``NaiveBayesModel.predict_proba``,
``tree_predict_proba`` and ``TrainedModel.predict_proba_row``) call that
kernel on a batch of one, so a record gets the same bits alone as in a
batch.  Models are immutable once trained, so prediction is a pure
function of (model, records) and safe to call from several threads at
once.

KNN works through its queries in blocks of about ``KNN_BLOCK_CELLS``
query-by-training-record distances, a fixed budget that keeps its
working buffers under about 1 MB whatever the batch size.

Tie rules are part of the contract:

* ``predict_label`` breaks probability ties toward the earlier class.
* KNN breaks distance ties toward the earlier training record.
* Tree induction breaks information-gain ties toward the earlier
  attribute in schema order; gain comparisons are carried out exactly on
  the integer counts, so ties are real ties and never float noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .data import AttributeSchema, Dataset, class_counts
from .errors import SchemaMismatchError

ALGORITHMS = ("knn", "naive-bayes", "tree")

PROBA_TOLERANCE = 1e-9

# distances (queries x training records) that one KNN block computes; with
# 8-byte keys the block's few buffers stay under about 1 MB
KNN_BLOCK_CELLS = 32_768


@dataclass(frozen=True)
class Hyperparams:
    """Hyperparameters for all three algorithms; unused ones are ignored."""

    knn_k: int = 5
    nb_alpha: float = 1.0
    tree_min_samples: int = 2
    tree_max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        if not (math.isfinite(self.nb_alpha) and self.nb_alpha >= 0.0):
            raise ValueError(f"nb_alpha (alpha) must be finite and >= 0, got {self.nb_alpha}")
        if self.tree_min_samples < 2:
            raise ValueError(f"tree_min_samples must be >= 2, got {self.tree_min_samples}")
        if self.tree_max_depth is not None and self.tree_max_depth < 0:
            raise ValueError(f"tree_max_depth must be >= 0, got {self.tree_max_depth}")


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of positions where two records disagree."""
    if len(a) != len(b):
        raise ValueError(f"record lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


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


def _one_record(values: Sequence[int], width: int) -> np.ndarray:
    """One encoded record as a batch of one, shape (1, width)."""
    record = np.asarray(values, dtype=np.intp)
    if record.shape != (width,):
        raise ValueError(f"record has {record.size} values, model expects {width}")
    return record.reshape(1, width)


def _records(rows: np.ndarray, width: int) -> np.ndarray:
    batch = np.asarray(rows, dtype=np.intp)
    if batch.ndim != 2 or batch.shape[1] != width:
        raise ValueError(f"records have shape {batch.shape}, model expects (m, {width})")
    return batch


# ---------------------------------------------------------------- KNN


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Stored training table; all work happens at prediction time.

    ``rows`` holds the encoded training records and ``labels`` their
    class indices; both are kept as integer arrays, (N, d) and (N,).
    ``rows`` is stored column-major, so each attribute's column is
    contiguous for the distance loop.
    """

    rows: np.ndarray
    labels: np.ndarray
    k: int
    n_classes: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asfortranarray(self.rows, dtype=np.intp))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.intp))

    def predict_proba(self, values: Sequence[int]) -> np.ndarray:
        """Vote for one record: ``predict_proba_batch`` on a batch of one."""
        return self.predict_proba_batch(_one_record(values, self.rows.shape[1]))[0]

    def predict_proba_batch(self, queries: np.ndarray) -> np.ndarray:
        """Vote of the min(k, N) nearest records under Hamming distance.

        Neighbors are ranked by (distance, training-row position), so ties
        are resolved toward earlier records and the result is exactly
        reproducible.  The vote is unweighted: each neighbor contributes
        1 / neighbors_used to its class.

        Distances accumulate one attribute at a time over a block of
        queries.  ``distance * N + position`` is then a unique key per
        training record, so one ``np.partition`` picks the nearest set
        exactly, ties included.
        """
        n, d = self.rows.shape
        queries = _records(queries, d)
        used = min(self.k, n)
        positions = np.arange(n)
        out = np.empty((len(queries), self.n_classes), dtype=np.float64)
        block = max(1, KNN_BLOCK_CELLS // n)
        for start in range(0, len(queries), block):
            q = queries[start : start + block]
            # the narrowest unsigned type that holds a distance of d
            distance = np.zeros((len(q), n), dtype=np.min_scalar_type(d))
            for j, column in enumerate(self.rows.T):
                distance += column != q[:, j, None]
            # int64 by request: numpy 1.x would keep ``distance * n`` in the
            # accumulator's narrow type and wrap once d * N passed its range
            key = np.multiply(distance, n, dtype=np.int64)
            key += positions
            nearest = np.partition(key, used - 1, axis=1)[:, :used] % n
            cells = self.labels[nearest] + self.n_classes * np.arange(len(q))[:, None]
            votes = np.bincount(cells.ravel(), minlength=len(q) * self.n_classes)
            out[start : start + len(q)] = votes.reshape(len(q), self.n_classes) / used
        return out


def train_knn(data: Dataset, params: Hyperparams) -> KnnModel:
    if not data.labeled:
        raise ValueError("training needs a labeled dataset")
    if data.n == 0:
        raise ValueError("training needs at least one record")
    assert data.label_array is not None
    return KnnModel(
        rows=data.matrix,
        labels=data.label_array,
        k=params.knn_k,
        n_classes=data.schema.n_classes,
    )


# ------------------------------------------------------- Naive Bayes


@dataclass(frozen=True)
class NaiveBayesModel:
    """Class priors and per-attribute value/class count tables."""

    class_counts: tuple[int, ...]
    tables: tuple[tuple[tuple[int, ...], ...], ...]  # [attribute][value][class]
    alpha: float
    _priors: np.ndarray = field(init=False, repr=False, compare=False)
    _ratios: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.class_counts, dtype=np.int64)
        ratios = []
        for table in self.tables:
            seen = np.asarray(table, dtype=np.int64).reshape(len(table), len(counts))
            per_class = counts + self.alpha * len(table)
            # a class with no records and alpha = 0 would divide 0 by 0; its
            # prior is 0, so its score is 0 whatever its ratio, as for alpha > 0
            ratio = np.zeros(seen.shape, dtype=np.float64)
            np.divide(seen + self.alpha, per_class, out=ratio, where=per_class != 0)
            ratios.append(ratio)
        object.__setattr__(self, "_priors", counts / counts.sum())
        object.__setattr__(self, "_ratios", tuple(ratios))

    def predict_proba(self, values: Sequence[int]) -> np.ndarray:
        """Scores for one record: ``predict_proba_batch`` on a batch of one."""
        return self.predict_proba_batch(_one_record(values, len(self.tables)))[0]

    def predict_proba_batch(self, rows: np.ndarray) -> np.ndarray:
        """Smoothed multinomial scores, normalised to sum to one.

        score(c) = prior(c) * prod_j (count(v_j, c) + alpha)
                                     / (count(c) + alpha * domain_j)

        The product runs over the attributes in schema order, starting
        from the prior.  With alpha = 0 a value never seen with a class
        zeroes that class out; if that zeroes every class the priors are
        returned instead.
        """
        rows = _records(rows, len(self.tables))
        scores = np.tile(self._priors, (len(rows), 1))
        for j, ratio in enumerate(self._ratios):
            scores *= ratio[rows[:, j]]
        mass = scores.sum(axis=1, keepdims=True)
        out = np.tile(self._priors, (len(rows), 1))
        np.divide(scores, mass, out=out, where=mass != 0.0)
        return out


def train_naive_bayes(data: Dataset, params: Hyperparams) -> NaiveBayesModel:
    """Tally value/class co-occurrence over the full declared domains."""
    if not data.labeled:
        raise ValueError("training needs a labeled dataset")
    if data.n == 0:
        raise ValueError("training needs at least one record")
    assert data.label_array is not None
    n_classes = data.schema.n_classes
    tables = []
    for j, attr in enumerate(data.schema.features):
        cells = data.matrix[:, j] * n_classes + data.label_array
        table = np.bincount(cells, minlength=attr.size * n_classes).reshape(attr.size, n_classes)
        tables.append(tuple(tuple(row) for row in table.tolist()))
    return NaiveBayesModel(
        class_counts=class_counts(data), tables=tuple(tables), alpha=params.nb_alpha
    )


# -------------------------------------------------------------- tree


def entropy(counts: Sequence[int]) -> float:
    """Shannon entropy of a class distribution, in bits."""
    total = sum(counts)
    if total <= 0:
        raise ValueError("entropy needs a nonempty distribution")
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def info_gain(data: Dataset, attribute: str, indices: Sequence[int] | None = None) -> float:
    """Information gain of splitting the (sub)set on one attribute."""
    if not data.labeled:
        raise ValueError("info_gain needs a labeled dataset")
    assert data.labels is not None
    j = data.schema.feature_index(attribute)
    subset = range(data.n) if indices is None else indices
    tally = _value_class_tally(data, j, subset)
    parent = [sum(col) for col in zip(*[row for row in tally if sum(row)])] or None
    if parent is None:
        raise ValueError("info_gain needs at least one record")
    weighted = 0.0
    total = sum(parent)
    for row in tally:
        n_v = sum(row)
        if n_v:
            weighted += n_v / total * entropy(row)
    return entropy(parent) - weighted


def _value_class_tally(data: Dataset, j: int, indices) -> list[list[int]]:
    rows, labels = data.rows, data.labels
    assert labels is not None
    tally = [[0] * data.schema.n_classes for _ in range(data.schema.features[j].size)]
    for i in indices:
        tally[rows[i][j]][labels[i]] += 1
    return tally


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


@dataclass(frozen=True)
class Leaf:
    counts: tuple[int, ...]
    label: int


@dataclass(frozen=True)
class Split:
    attribute: int  # feature index in schema order
    children: tuple["TreeNode", ...]  # one child per domain value, in domain order


TreeNode = Union[Leaf, Split]


def _argmax_label(counts: Sequence[int]) -> int:
    best = 0
    for c, n in enumerate(counts):
        if n > counts[best]:
            best = c
    return best


def train_tree(data: Dataset, params: Hyperparams) -> TreeNode:
    """Grow an unpruned multiway tree by maximum information gain.

    A node becomes a leaf when it is pure, has fewer than
    ``tree_min_samples`` records, has no unused attributes left, sits at
    ``tree_max_depth``, or when no attribute has positive gain.  Empty
    branches get a leaf carrying the parent distribution.  No attribute
    is reused along a path.
    """
    if not data.labeled:
        raise ValueError("training needs a labeled dataset")
    if data.n == 0:
        raise ValueError("training needs at least one record")
    return _grow(data, params, list(range(data.n)), tuple(range(len(data.schema.features))), 0)


def _grow(
    data: Dataset, params: Hyperparams, indices: list[int], available: tuple[int, ...], depth: int
) -> TreeNode:
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle that would keep each fold's training data alive
    labels = data.labels
    assert labels is not None
    counts_list = [0] * data.schema.n_classes
    for i in indices:
        counts_list[labels[i]] += 1
    counts = tuple(counts_list)
    leaf = Leaf(counts=counts, label=_argmax_label(counts))
    if sum(1 for c in counts if c) <= 1:
        return leaf
    if len(indices) < params.tree_min_samples:
        return leaf
    if params.tree_max_depth is not None and depth >= params.tree_max_depth:
        return leaf
    if not available:
        return leaf

    parent_score = _split_score([list(counts)])
    best_j: int | None = None
    best_score: tuple[int, int] | None = None
    for j in available:
        score = _split_score(_value_class_tally(data, j, indices))
        if best_score is None or _score_less(score, best_score):
            best_j, best_score = j, score
    assert best_j is not None and best_score is not None
    # positive gain means the best split strictly beats the parent
    if not _score_less(best_score, parent_score):
        return leaf

    remaining = tuple(j for j in available if j != best_j)
    buckets: list[list[int]] = [[] for _ in range(data.schema.features[best_j].size)]
    rows = data.rows
    for i in indices:
        buckets[rows[i][best_j]].append(i)
    children = tuple(
        _grow(data, params, bucket, remaining, depth + 1) if bucket else leaf
        for bucket in buckets
    )
    return Split(attribute=best_j, children=children)


def tree_predict_proba(node: TreeNode, values: Sequence[int]) -> np.ndarray:
    """Leaf distribution for one record: the batch walk on a batch of one."""
    record = np.asarray(values, dtype=np.intp).reshape(1, -1)
    # a single record always reaches one leaf, whose length is the class count
    return tree_predict_proba_batch(node, record, n_classes=-1)[0]


def tree_predict_proba_batch(root: TreeNode, rows: np.ndarray, n_classes: int) -> np.ndarray:
    """Walk each record to a leaf and normalise the leaves' class counts.

    ``n_classes`` shapes the result, so an empty batch gives (0, n_classes).
    """
    leaves = []
    for values in np.asarray(rows, dtype=np.intp).tolist():
        node = root
        while isinstance(node, Split):
            node = node.children[values[node.attribute]]
        leaves.append(node.counts)
    counts = np.array(leaves, dtype=np.float64).reshape(len(leaves), n_classes)
    return counts / counts.sum(axis=1, keepdims=True)


# ------------------------------------------------------ common front


@dataclass(frozen=True)
class TrainedModel:
    """An algorithm tag, its fitted state, and the schema it was fit under."""

    algorithm: str
    schema: AttributeSchema
    params: Hyperparams
    model: KnnModel | NaiveBayesModel | TreeNode

    @property
    def fingerprint(self) -> str:
        return self.schema.fingerprint()

    def _predict(self, rows: np.ndarray) -> np.ndarray:
        if isinstance(self.model, (KnnModel, NaiveBayesModel)):
            return self.model.predict_proba_batch(rows)
        return tree_predict_proba_batch(self.model, rows, self.schema.n_classes)

    def predict_proba_row(self, values: Sequence[int]) -> np.ndarray:
        """Probability vector for one already-encoded record."""
        return self._predict(_one_record(values, len(self.schema.features)))[0]

    def predict_proba(self, data: Dataset) -> np.ndarray:
        """Probability matrix (records x classes) for a whole dataset, in
        one batch.

        The dataset must carry a schema with the same fingerprint the
        model was trained under; anything else is rejected outright.
        """
        if data.schema.fingerprint() != self.fingerprint:
            raise SchemaMismatchError(
                "dataset schema fingerprint does not match the model's "
                f"({data.schema.fingerprint()[:12]} vs {self.fingerprint[:12]})"
            )
        return self._predict(data.matrix)

    def predict_labels(self, data: Dataset) -> np.ndarray:
        return predict_labels(self.predict_proba(data))


def train(data: Dataset, algorithm: str, params: Hyperparams | None = None) -> TrainedModel:
    """Train one of the three algorithms by id: knn, naive-bayes, tree."""
    params = params or Hyperparams()
    if algorithm == "knn":
        model: KnnModel | NaiveBayesModel | TreeNode = train_knn(data, params)
    elif algorithm == "naive-bayes":
        model = train_naive_bayes(data, params)
    elif algorithm == "tree":
        model = train_tree(data, params)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    return TrainedModel(algorithm=algorithm, schema=data.schema, params=params, model=model)
