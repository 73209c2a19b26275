"""Three categorical classifiers behind one batch contract.

Each algorithm is one subclass of ``TrainedModel``, and ``REGISTRY``
maps each id to its class.  ``train`` fits one on a labeled
:class:`~turnout.data.Dataset`.  A trained model holds the schema and
hyperparameters it was trained under and its tables, and predicts with
one batch kernel: an ``(m, d)`` array of encoded records in, an
``(m, k)`` matrix of class probabilities out, each value checked against
its attribute's domain.  It also writes its model-file payload and reads
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
import numbers
from typing import NamedTuple, Sequence

import numpy as np

from .data import AttributeSchema, Dataset, index_array, tally
from .errors import ModelFileError, SchemaMismatchError, UsageError

PROBA_TOLERANCE = 1e-9

# distances (queries x training records) that one KNN block computes; with
# 8-byte code XORs and keys of at most 8 bytes the block's few buffers stay
# under about 1 MB
KNN_BLOCK_CELLS = 32_768


def _integer(name: str, value: object) -> int:
    """``value`` as an int; a float or bool is refused, naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return int(value)


class Hyperparams(NamedTuple("Hyperparams", [
        ("knn_k", int), ("nb_alpha", float), ("tree_min_samples", int),
        ("tree_max_depth", int | None)])):
    """Hyperparameters for all three algorithms; unused ones are ignored."""

    __slots__ = ()

    def __new__(cls, knn_k: int = 5, nb_alpha: float = 1.0, tree_min_samples: int = 2,
                tree_max_depth: int | None = None) -> Hyperparams:
        knn_k, tree_min_samples = _integer("knn_k", knn_k), _integer("tree_min_samples", tree_min_samples)
        if tree_max_depth is not None:
            tree_max_depth = _integer("tree_max_depth", tree_max_depth)
        if isinstance(nb_alpha, bool) or not isinstance(nb_alpha, numbers.Real):
            raise UsageError(f"nb_alpha must be a real number, got {nb_alpha!r}")
        if knn_k < 1:
            raise UsageError(f"knn_k must be >= 1, got {knn_k}")
        if not (math.isfinite(nb_alpha) and nb_alpha >= 0.0):
            raise UsageError(f"nb_alpha (alpha) must be finite and >= 0, got {nb_alpha}")
        if tree_min_samples < 2:
            raise UsageError(f"tree_min_samples must be >= 2, got {tree_min_samples}")
        if tree_max_depth is not None and tree_max_depth < 0:
            raise UsageError(f"tree_max_depth must be >= 0, got {tree_max_depth}")
        return super().__new__(cls, knn_k, float(nb_alpha), tree_min_samples, tree_max_depth)


def predict_labels(proba: np.ndarray) -> np.ndarray:
    """Row-wise argmax of an (m, k) probability matrix; ties go to the
    earlier class.  Every row must sum to one within ``PROBA_TOLERANCE``."""
    arr = np.asarray(proba, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ValueError("empty probability vector")
    sums = arr.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= PROBA_TOLERANCE))  # NaN included
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


def _ints(line: str, prefix: str, what: str) -> list[int]:
    """The integers after ``prefix`` on one model-file payload line."""
    if not line.startswith(prefix):
        raise ModelFileError(f"expected {prefix!r} line, got {line!r}")
    text = line[len(prefix) :]
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

    The subclass is the whole algorithm.  It names its ``REGISTRY`` id in
    ``algorithm``, reads its settings from ``params`` and ``schema`` and
    keeps no copy of them, and provides the classmethod ``_fit`` (trains
    on a labeled dataset, which ``train`` has checked),
    ``predict_proba_batch`` ((m, k) class probabilities of (m, d) encoded
    records; a value outside its attribute's domain is a ValueError),
    ``payload`` (the model-file payload lines) and the classmethod
    ``from_payload`` (parses what ``payload`` wrote: prefixes, integers,
    field and line counts).  The constructor holds every check
    prediction relies on, however the model is built (a ValueError).
    ``domain_sizes`` and ``_offsets`` are the schema's ``_layout``.  A
    model is immutable and equal only to itself.
    """

    algorithm: str

    def __init__(self, schema: AttributeSchema, params: Hyperparams) -> None:
        sizes, offsets = _layout(schema)
        vars(self).update(schema=schema, params=params, domain_sizes=sizes, _offsets=offsets)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

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
                f"({data.schema.fingerprint()[:12]} vs {self.schema.fingerprint()[:12]})"
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
        sizes, k = self.domain_sizes, schema.n_classes
        rows, labels = np.asarray(rows), np.asarray(labels)
        if rows.dtype.kind not in "fO":  # a file's integers past int64 are float or object
            rows, labels = index_array(rows, "knn rows"), index_array(labels, "labels")
        need = f"knn needs one label in 0..{k - 1} per row, and rows of {len(sizes)} in-domain values"
        if labels.ndim != 1 or rows.shape != (len(labels), len(sizes)) or not labels.size:
            raise ValueError(need)
        # the vote adds each label into its query's row of classes
        bad = ((rows < 0) | (rows >= sizes)).any(axis=1) | (labels < 0) | (labels >= k)
        if bad.any():
            raise ValueError(f"{need}; row {int(bad.argmax())} is out of range")
        rows, labels = index_array(rows, "knn rows"), index_array(labels, "labels")
        n_words = -(-int(self.domain_sizes.sum()) // 64)
        vars(self).update(rows=rows, labels=labels, _codes=_bit_codes(rows, self._offsets, n_words))

    @classmethod
    def _fit(cls, data: Dataset, params: Hyperparams) -> KnnModel:
        """Keep the training table as it is."""
        return cls(data.schema, params, data.matrix, data.label_array)

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
        """The model ``payload`` wrote."""
        width, rows = len(schema.features) + 1, []
        for line in lines:
            try:
                values = _ints(line, "row: ", "knn row")
                if len(values) != width:
                    raise ModelFileError(f"knn row has {len(values)} fields, expected {width}")
            except ModelFileError:
                if rows:  # a fault the constructor finds in an earlier line comes first
                    cls.from_payload(lines[: len(rows)], schema, params)
                raise
            rows.append(values)
        table = np.reshape(rows, (len(rows), width))
        return cls(schema, params, table[:, :-1], table[:, -1])


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
        alpha, sizes, k = params.nb_alpha, self.domain_sizes, schema.n_classes
        # exact Python ints until checked: a file's counts have any size
        totals, table = np.asarray(class_counts, dtype=object), np.asarray(counts, dtype=object)
        with np.errstate(invalid="ignore"):  # NaN and ±inf are just not whole numbers
            if totals.shape != (k,) or (totals < 0).any() or (totals % 1 != 0).any() or totals.sum() == 0:
                raise ValueError(f"class counts must be {k} non-negative integers with a positive total")
            if totals.sum() >= 2**63:  # the tables sum to the class counts, so they fit too
                raise ValueError("class counts must total less than 2**63")
            if table.shape != (int(sizes.sum()), k) or (table < 0).any() or (table % 1 != 0).any():
                raise ValueError(f"count table needs {int(sizes.sum())} rows of {k} non-negative integers")
        wrong = (np.add.reduceat(table, self._offsets, axis=0) != totals).any(axis=1)
        if wrong.any():
            raise ValueError(f"count table {int(wrong.argmax())} does not sum to the class counts")
        class_counts, counts = totals.astype(np.int64), table.astype(np.int64)
        # each table row's denominator, count(c) + alpha * domain size; inf for an alpha near the
        # float limit, so every ratio is 0 and prediction returns the priors, alpha's limit
        with np.errstate(over="ignore"):
            per_class = np.repeat(class_counts + alpha * sizes[:, None], sizes, axis=0)
        # a class with no records and alpha = 0 would divide 0 by 0; its
        # prior is 0, so its score is 0 whatever its ratio, as for alpha > 0
        ratios = np.zeros(counts.shape, dtype=np.float64)
        np.divide(counts + alpha, per_class, out=ratios, where=per_class != 0)
        vars(self).update(class_counts=class_counts, counts=counts,
                          _priors=class_counts / class_counts.sum(), _ratios=ratios)

    @classmethod
    def _fit(cls, data: Dataset, params: Hyperparams) -> NaiveBayesModel:
        """Tally value/class co-occurrence over the full declared domains."""
        labels, k = data.label_array, data.schema.n_classes
        sizes, offsets = _layout(data.schema)
        return cls(data.schema, params, np.bincount(labels, minlength=k),
                   tally(data.matrix + offsets, labels[:, None], int(sizes.sum()), k))

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

    @staticmethod
    def _keys(schema: AttributeSchema) -> list[str]:
        """The key of each payload line: ``class-counts``, then
        ``table <attr> <value>`` per table row."""
        return ["class-counts"] + [f"table {j} {v}" for j, attr in enumerate(schema.features)
                                   for v in range(attr.size)]

    def payload(self) -> list[str]:
        """Model-file lines ``<key>: <count per class>``: the class counts,
        then the table rows."""
        rows = [self.class_counts.tolist(), *self.counts.tolist()]
        return [f"{key}: " + " ".join(map(str, row))
                for key, row in zip(self._keys(self.schema), rows)]

    @classmethod
    def from_payload(cls, lines: list[str], schema: AttributeSchema,
                     params: Hyperparams) -> NaiveBayesModel:
        """The model ``payload`` wrote."""
        keys = cls._keys(schema)
        if len(lines) != len(keys):
            raise ModelFileError(f"naive-bayes payload has {len(lines)} lines, expected {len(keys)}")
        class_counts = _ints(lines[0], "class-counts: ", "class counts")
        table = [_ints(line, f"{key}: ", "count table row") for key, line in zip(keys[1:], lines[1:])]
        return cls(schema, params, class_counts, table)


# -------------------------------------------------------------- tree


def _exact_split(
    table: np.ndarray, counts: np.ndarray, candidates: np.ndarray,
    offsets: np.ndarray, sizes: np.ndarray,
) -> int:
    """The candidate with the lowest exact split score, or -1 when none is
    strictly below the parent's; ties go to the earlier candidate.

    The score is an exact surrogate for the weighted child entropy:

    sum_v n_v * H(child_v)  =  log2(p) - log2(q)  with
    p = prod_v n_v ** n_v   and   q = prod_{v,c} n_vc ** n_vc.

    Scores compare as log2(p1/q1) < log2(p2/q2) iff p1*q2 < p2*q1, which
    is plain big-integer arithmetic: no float rounding can flip a tie.
    """
    best_j, best_p, best_q = -1, 0, 0
    for j in [-1, *candidates.tolist()]:  # -1: the parent, unsplit
        rows = [counts.tolist()] if j < 0 else table[offsets[j] : offsets[j] + sizes[j]].tolist()
        p = math.prod(sum(row) ** sum(row) for row in rows)  # 0 ** 0 == 1
        q = math.prod(c**c for row in rows for c in row)
        if j < 0 or p * best_q < best_p * q:
            best_j, best_p, best_q = j, p, q
    return best_j


class TreeModel(TrainedModel):
    """A grown tree as one flat node table, breadth first from the root,
    node 0: the same numbering as the model file's ``node <i>`` lines.

    ``attribute[i]`` is node i's split attribute (-1 for a leaf) and
    ``counts[i]`` its class counts; an empty branch carries its parent's,
    and a split node read from a model file, which stores none, has zeros.
    A leaf's label is the argmax of its counts, ties to the earlier class.
    The numbering fixes ``children[i, v]``, the node split i sends value v
    to (-1 past its domain and on a leaf): 1, plus the domain sizes of the
    splits before i, plus v.  Each split must name a feature and come
    before its children, the table must hold just the root and those
    children, and each row needs whole counts in 0..2**63-1, a leaf's not
    all 0: anything else is a ValueError naming the fault.
    """

    algorithm = "tree"

    def __init__(self, schema: AttributeSchema, params: Hyperparams, attribute: np.ndarray,
                 counts: np.ndarray) -> None:
        super().__init__(schema, params)
        attribute = index_array(attribute, "tree attribute table")
        # counts are checked before their cast: a file's integers are objects of any size
        n, counts = len(attribute), np.asarray(counts)
        if counts.shape != (n, schema.n_classes):
            raise ValueError(f"tree counts have shape {counts.shape}, "
                             f"expected ({n}, {schema.n_classes}): one row of class counts per node")
        with np.errstate(invalid="ignore"):  # NaN and ±inf are just not whole numbers
            bad = ((counts < 0) | (counts >= 2**63) | (counts % 1 != 0)).any(axis=1)
            bad |= (attribute < 0) & ~(counts > 0).any(axis=1)
        if bad.any():
            i = bad.argmax()
            raise ValueError(f"leaf node {i} has an invalid class distribution" if attribute[i] < 0
                             else f"split node {i} has invalid class counts")
        unknown = (attribute >= len(self.domain_sizes)).nonzero()[0]
        if unknown.size:
            raise ValueError(f"split node {unknown[0]} names an unknown attribute")
        split = attribute >= 0
        width = np.where(split, self.domain_sizes[np.where(split, attribute, 0)], 0)
        first = 1 + np.cumsum(width) - width
        if n != 1 + width.sum():
            raise ValueError(f"tree has {n} nodes, expected the root and {width.sum()} children")
        late = (split & (first <= np.arange(n))).nonzero()[0]
        if late.size:
            raise ValueError(f"split node {late[0]} comes after its children")
        slots = np.arange(int(self.domain_sizes.max()))
        children = np.where(slots < width[:, None], first[:, None] + slots, -1)
        vars(self).update(attribute=attribute, children=children,
                          counts=np.asarray(counts, dtype=np.int64))

    @classmethod
    def _fit(cls, data: Dataset, params: Hyperparams) -> TreeModel:
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
        tallies with ``_exact_split``, over the attributes
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
        labels = data.label_array
        k = data.schema.n_classes
        sizes, offsets = _layout(data.schema)
        width, d = int(sizes.sum()), len(sizes)
        n = np.arange(1, data.n + 1, dtype=np.float64)
        f = np.concatenate(([0.0], n * np.log2(n)))  # f[n] = n * log2(n)
        eps_per_f = ((k + 1) * int(sizes.max()) + 10) * 2.0**-50

        # the node table, one depth at a time: every node's class counts and split attribute
        counts_at: list[np.ndarray] = []
        attribute_at: list[np.ndarray] = []
        # the records still in play and their node at this depth; ``labels`` is
        # narrowed along with ``rows``
        rows = np.arange(data.n)
        slot = np.zeros(data.n, dtype=np.intp)
        counts = tally(slot, labels, 1, k)
        for depth in range(d + 1):
            n_node = np.bincount(slot, minlength=len(counts))  # an empty branch holds none
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
            child = table[parent_of, offsets[choice[parent_of]] + value]
            # an empty branch carries its parent's counts
            counts = np.where(child.any(axis=1)[:, None], child, counts[nodes[parent_of]])
            moved = split[node_of]
            rows, labels, node_of = rows[moved], labels[moved], node_of[moved]
            slot = first[node_of] + data.matrix[rows, choice[node_of]]

        return cls(data.schema, params, np.concatenate(attribute_at), np.concatenate(counts_at))

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
        """The model ``payload`` wrote, each leaf labeled with its argmax and
        each split listing the next nodes, breadth first, that none before it lists."""
        n, sizes = len(lines), tuple(a.size for a in schema.features)
        attribute = np.full(n, -1, dtype=np.intp)
        counts = np.zeros((n, schema.n_classes), dtype=object)
        listed = 1  # the nodes listed as children so far, the root included
        for i, line in enumerate(lines):
            leaf = line.startswith(f"node {i}: leaf ")
            head, sep, tail = line.partition(" counts " if leaf else " children ")
            if not sep:
                raise ModelFileError(f"malformed tree node line {line!r}")
            head = _ints(head, f"node {i}: {'leaf' if leaf else 'split'} ", "tree node")
            tail = _ints(tail, "", "tree node")
            if leaf:
                if len(head) != 1 or len(tail) != schema.n_classes:
                    raise ModelFileError(f"leaf node {i} is malformed")
                if head[0] != tail.index(max(tail)):
                    raise ModelFileError(f"leaf node {i} label is not the argmax of its counts")
                counts[i] = tail
                continue
            if len(head) != 1 or not 0 <= head[0] < len(sizes):
                raise ModelFileError(f"split node {i} names an unknown attribute")
            want = list(range(listed, listed + sizes[head[0]]))
            if tail != want:
                raise ModelFileError(f"split node {i} has children {' '.join(map(str, tail))}, "
                                     f"expected {' '.join(map(str, want))}")
            attribute[i] = head[0]
            listed += len(tail)
        return cls(schema, params, attribute, counts)


# ------------------------------------------------------ common front


# the one table of algorithms, in report order
REGISTRY = {m.algorithm: m for m in (KnnModel, NaiveBayesModel, TreeModel)}
ALGORITHMS = tuple(REGISTRY)


def train(data: Dataset, algorithm: str, params: Hyperparams | None = None) -> TrainedModel:
    """Train one of the algorithms in ``REGISTRY`` by id on a labeled dataset,
    under ``Hyperparams()`` unless ``params`` is given."""
    if algorithm not in REGISTRY:
        raise UsageError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if data.label_array is None:
        raise UsageError("training needs a labeled dataset")
    return REGISTRY[algorithm]._fit(data, params or Hyperparams())
