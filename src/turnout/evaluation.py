"""Stratified cross-validation, confusion matrices, metrics, and curves.

All randomness flows from one seeded stream, numpy's PCG64 generator
reproduced here in pure Python, so every result is a pure function of
(data, algorithm, hyperparameters, protocol, seed) whatever numpy's version.
A protocol's ``splits`` are (training, held-out) index pairs;
``held_out_scores`` trains on each training selection of the validated
dataset and scores its held-out records with one batch call to the
model's kernel (see :mod:`turnout.classifiers`), one split after another.

Curves sort the scores once: ROC takes cumulative sums at the ends of
tie blocks (Fawcett 2006, Alg. 1-2), lift at every rank, and
calibration bins with ``np.bincount``.  Each gives the same points, in
the same floating-point order, as a per-threshold or per-record loop.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .classifiers import Hyperparams, _integer, predict_labels, train
from .data import Dataset, class_counts, index_array, tally
from .errors import UsageError


# ----------------------------------------------------------- folding

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _pcg64_words(seed: int) -> Iterator[int]:
    """The 32-bit draws of ``np.random.default_rng(seed)``, bit for bit,
    without importing ``numpy.random`` (and with it OpenSSL), and fixed
    across numpy releases, which promise no stream (NEP 19)."""
    # SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit words
    # are hashed into a pool of four, and the pool out to eight words
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43b0d7e5

    def hashmix(value: int, mult: int = 0x931e8875) -> int:
        nonlocal const
        const, value = const * mult & _M32, value ^ const
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = (0xca01f9dd * x - 0x4973f715 * hashmix(y)) & _M32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in [(s, d) for s in range(4) for d in range(4) if s != d]:
        pool[dst] = mix(pool[dst], pool[src])
    for extra, dst in [(e, d) for e in entropy[4:] for d in range(4)]:
        pool[dst] = mix(pool[dst], extra)
    const = 0x8b51f9dd  # generate_state hashes with its own constants
    out = [hashmix(value, 0x58f38ded) for value in pool * 2]
    w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    # PCG64 set_seed (O'Neill 2014), then each draw steps and outputs XSL-RR;
    # a 32-bit draw takes an output's low half, and the next one its high half
    mult, inc = 0x2360ed051fc65da44385df649fccf645, ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        yield x & _M32
        yield x >> 32


def _shuffle(items: list, words: Iterator[int]) -> None:
    """``Generator.shuffle``: Fisher-Yates from the end, each index drawn by
    masked rejection."""
    # numpy draws 64-bit words past index 2**32 - 1, so a class of more records would differ
    for i in range(len(items) - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(words) & mask
        while j > i:
            j = next(words) & mask
        items[i], items[j] = items[j], items[i]


def stratified_folds(data: Dataset, folds: int, seed: int) -> np.ndarray:
    """The fold of each record, a read-only intp array: each class's
    records dealt round-robin into ``folds`` folds.

    Records are grouped by class, the groups are shuffled in class order
    by one stream that draws as ``np.random.default_rng(seed).permutation``
    does (``_pcg64_words``), and dealt in class order onto a single
    round-robin cursor.  Within every class the fold sizes differ by at
    most one, and ``folds == n`` degenerates to leave-one-out.
    """
    if not data.labeled:
        raise UsageError("stratified folds need a labeled dataset")
    if data.n == 0:
        raise UsageError("the dataset has no records; stratified folds need at least one")
    _, folds, seed = Protocol("cv", folds, seed)  # the checks that need no data
    if folds > data.n:
        raise UsageError(f"folds must be between 2 and {data.n}, got {folds}")
    words = _pcg64_words(seed)
    labels = data.label_array
    fold_of = np.zeros(data.n, dtype=np.intp)
    cursor = 0
    for c in range(data.schema.n_classes):
        members = np.flatnonzero(labels == c).tolist()
        _shuffle(members, words)
        fold_of[members] = (cursor + np.arange(len(members))) % folds
        cursor += len(members)
    fold_of.flags.writeable = False
    return fold_of


# ------------------------------------------------- confusion + metrics


class ConfusionMatrix(NamedTuple("ConfusionMatrix", [("counts", tuple[tuple[int, ...], ...]),
                                                     ("labels", tuple[str, ...])])):
    """Square count matrix; rows are actual classes, columns predicted."""

    __slots__ = ()

    def __new__(cls, counts: tuple[tuple[int, ...], ...],
                labels: tuple[str, ...]) -> ConfusionMatrix:
        k = len(labels)
        if len(counts) != k or any(len(row) != k for row in counts):
            raise ValueError("confusion matrix must be square with one row per class")
        if any(c < 0 for row in counts for c in row):
            raise ValueError("confusion matrix counts must be non-negative")
        if len(set(labels)) != k or "" in labels:
            raise ValueError("confusion matrix class labels must be distinct and nonempty")
        return super().__new__(cls, counts, labels)

    @property
    def n(self) -> int:
        return sum(sum(row) for row in self.counts)

    @classmethod
    def from_predictions(
        cls, actual: Sequence[int], predicted: Sequence[int], labels: Sequence[str]
    ) -> "ConfusionMatrix":
        """Counts of each record's (actual, predicted) class pair; a record
        with either missing or outside 0..k-1 is a ValueError naming it."""
        k = len(labels)
        pair = [index_array(actual, "actual classes"), index_array(predicted, "predicted classes")]
        n = min(map(len, pair))
        both = np.stack([classes[:n] for classes in pair])
        faults = [*np.flatnonzero(((both < 0) | (both >= k)).any(axis=0)).tolist(), n]
        if faults[0] < max(map(len, pair)):
            raise ValueError(f"record {faults[0]}: needs an actual and a predicted class in 0..{k - 1}")
        counts = tally(both[0], both[1], k, k)
        return cls(counts=tuple(map(tuple, counts.tolist())), labels=tuple(labels))


def class_accuracy(matrix: ConfusionMatrix) -> float:
    """Overall accuracy: trace over grand total."""
    total = matrix.n
    if total == 0:
        raise ValueError("empty confusion matrix")
    return sum(matrix.counts[i][i] for i in range(len(matrix.labels))) / total


class PerClassMetrics(NamedTuple):
    """One-vs-rest metrics for a single positive class.

    A zero denominator leaves the value at 0.0 and records the metric
    name in ``undefined``; report emitters render those cells as NA.
    F1 is undefined exactly when precision + recall == 0.
    """

    label: str
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    recall: float
    f1: float
    undefined: frozenset[str]


def per_class_metrics(matrix: ConfusionMatrix, positive: int) -> PerClassMetrics:
    k = len(matrix.labels)
    if not 0 <= positive < k:
        raise ValueError(f"class index {positive} out of range")
    tp = matrix.counts[positive][positive]
    fn = sum(matrix.counts[positive][j] for j in range(k)) - tp
    fp = sum(matrix.counts[i][positive] for i in range(k)) - tp
    tn = matrix.n - tp - fn - fp

    undefined = set()

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            undefined.add(name)
            return 0.0
        return num / den

    sensitivity = ratio(tp, tp + fn, "sensitivity")
    specificity = ratio(tn, tn + fp, "specificity")
    precision = ratio(tp, tp + fp, "precision")
    recall = sensitivity  # same ratio, reported under both names
    if "sensitivity" in undefined:
        undefined.add("recall")
    if precision + recall == 0.0:
        undefined.add("f1")
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return PerClassMetrics(
        label=matrix.labels[positive],
        accuracy=class_accuracy(matrix),
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        recall=recall,
        f1=f1,
        undefined=frozenset(undefined),
    )


def majority_baseline(data: Dataset) -> float:
    """Accuracy of always predicting the most frequent class."""
    counts = class_counts(data)
    if data.n == 0:
        raise ValueError("the dataset has no records; the majority baseline needs at least one")
    return max(counts) / sum(counts)


# -------------------------------------------------------------- curves


class CurveSeries(NamedTuple):
    kind: str  # "roc" | "lift" | "calibration"
    label: str  # positive class
    points: tuple[tuple[float, float], ...]
    auc: float | None = None


def _curve_input(scores: Sequence[float], positive: Sequence[bool]) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(positive, dtype=bool)
    if s.shape != flags.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and positive flags must be equal-length 1-d sequences")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return s, flags


def roc_points(scores: Sequence[float], positive: Sequence[bool], label: str = "") -> CurveSeries:
    """ROC curve swept over the distinct scores, highest first.

    Each distinct score is a threshold (predict positive when
    score >= threshold), so tied records enter as a block.  The curve
    starts at (0, 0), ends at (1, 1), and ``auc`` is the trapezoid area,
    summed threshold by threshold.
    """
    s, flags = _curve_input(scores, positive)
    n_pos = int(flags.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc needs at least one positive and one negative record")
    order = np.argsort(-s)
    ranked = s[order]
    block_ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(flags[order])[block_ends]
    fp = block_ends + 1 - tp
    xs = np.concatenate(([0.0], fp / n_neg))
    ys = np.concatenate(([0.0], tp / n_pos))
    # cumsum adds left to right, so the area is the per-threshold sum's bits
    auc = float(np.cumsum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0)[-1])
    return CurveSeries(kind="roc", label=label, points=tuple(zip(xs.tolist(), ys.tolist())),
                       auc=auc)


def lift_points(scores: Sequence[float], positive: Sequence[bool], label: str = "") -> CurveSeries:
    """Cumulative lift: precision of the top fraction over the prevalence.

    Records are ranked by score, descending, ties kept in record order.
    x is the fraction of records taken, y that prefix's precision divided
    by the overall positive rate; the final point is always y = 1.
    """
    s, flags = _curve_input(scores, positive)
    n_pos = int(flags.sum())
    if n_pos == 0:
        raise ValueError("lift needs at least one positive record")
    n = s.size
    prevalence = n_pos / n
    seen = np.cumsum(flags[np.argsort(-s, kind="stable")])
    taken = np.arange(1, n + 1)
    xs = (taken / n).tolist()
    ys = ((seen / taken) / prevalence).tolist()
    return CurveSeries(kind="lift", label=label, points=tuple(zip(xs, ys)))


def calibration_points(
    scores: Sequence[float], positive: Sequence[bool], bins: int = 10, label: str = ""
) -> CurveSeries:
    """Mean predicted score vs observed positive rate per score bin.

    [0, 1] is cut into ``bins`` equal-width bins, right-closed except the
    first (which keeps 0).  Empty bins are omitted.  Each bin's score sum
    is accumulated in record order.
    """
    s, flags = _curve_input(scores, positive)
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    # bin b holds (b / bins, (b + 1) / bins]; scores <= 0 go to bin 0, > 1 to the last
    b = np.where(s > 0, np.minimum(np.ceil(s * bins), bins) - 1, 0).astype(np.intp)
    totals = np.bincount(b, minlength=bins)
    positives = np.bincount(b[flags], minlength=bins)
    sums = np.bincount(b, weights=s, minlength=bins)
    filled = np.flatnonzero(totals)
    means = (sums[filled] / totals[filled]).tolist()
    rates = (positives[filled] / totals[filled]).tolist()
    return CurveSeries(kind="calibration", label=label, points=tuple(zip(means, rates)))


# ----------------------------------------------------------- protocol


class Protocol(NamedTuple("Protocol", [("kind", str), ("folds", int | None),
                                       ("seed", int | None)])):
    """How predictions are obtained: k-fold CV (``kind="cv"``, with
    integer ``folds`` >= 2 and ``seed`` >= 0) or ``kind="test-on-train"``
    (with neither)."""

    __slots__ = ()

    def __new__(cls, kind: str, folds: int | None = None, seed: int | None = None) -> Protocol:
        if kind not in ("cv", "test-on-train"):
            raise UsageError(f"unknown protocol kind {kind!r}")
        if kind == "cv" and (folds is None or seed is None):
            raise UsageError("cv protocol needs folds and seed")
        if kind == "test-on-train" and (folds is not None or seed is not None):
            raise UsageError("test-on-train protocol takes no folds or seed")
        if kind == "cv":
            folds, seed = _integer("folds", folds), _integer("seed", seed)
            if folds < 2:
                raise UsageError(f"folds must be >= 2, got {folds}")
            if seed < 0:
                raise UsageError(f"seed must be >= 0, got {seed}")
        return super().__new__(cls, kind, folds, seed)

    def describe(self) -> str:
        if self.kind == "cv":
            return f"stratified {self.folds}-fold cross-validation (seed {self.seed})"
        return "test on training data"

    def splits(self, data: Dataset) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The (training indices, held-out indices) pairs: one per fold of
        ``stratified_folds`` under CV, else the single pair (all, all).
        The folds are dealt at the call, so its usage errors raise there;
        the pairs are made one at a time, as the iterator is read."""
        if self.kind == "test-on-train":
            every = np.arange(data.n)
            return iter([(every, every)])
        fold_of = stratified_folds(data, self.folds, self.seed)
        return ((np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f))
                for f in range(self.folds))


def held_out_scores(
    data: Dataset,
    algorithm: str,
    params: Hyperparams | None = None,
    protocol: Protocol | None = None,
) -> np.ndarray:
    """The (records x classes) score table, in record order: each record
    scored by the model trained on the split that holds it out (under
    test-on-train, the one model trained on every record)."""
    if not data.labeled:
        raise UsageError("evaluation needs a labeled dataset")
    protocol = protocol or Protocol(kind="cv", folds=10, seed=0)
    scores = np.zeros((data.n, data.schema.n_classes), dtype=np.float64)
    for train_idx, test_idx in protocol.splits(data):
        model = train(data.subset(train_idx), algorithm, params)
        scores[test_idx] = model.predict_proba(data.subset(test_idx))
    return scores


# --------------------------------------------------------- full report


class EvaluationReport(NamedTuple):
    algorithm: str
    params: Hyperparams
    protocol: Protocol
    matrix: ConfusionMatrix
    curves: tuple[CurveSeries, ...]


def evaluate(
    data: Dataset,
    algorithm: str,
    params: Hyperparams | None = None,
    protocol: Protocol | None = None,
) -> EvaluationReport:
    """Run a protocol and assemble the confusion matrix and curves.

    Curves pool each record's single held-out score per class.  A curve
    whose preconditions fail (a class with no positives or no negatives)
    is omitted rather than raising.
    """
    params = params or Hyperparams()
    protocol = protocol or Protocol(kind="cv", folds=10, seed=0)
    scores = held_out_scores(data, algorithm, params, protocol)
    labels = data.label_array
    matrix = ConfusionMatrix.from_predictions(labels, predict_labels(scores),
                                              data.schema.class_labels)
    curves: list[CurveSeries] = []
    for c, name in enumerate(data.schema.class_labels):
        flags = labels == c
        column = scores[:, c]
        if 0 < int(flags.sum()) < data.n:
            curves.append(roc_points(column, flags, label=name))
        if int(flags.sum()) > 0:
            curves.append(lift_points(column, flags, label=name))
        curves.append(calibration_points(column, flags, label=name))
    return EvaluationReport(
        algorithm=algorithm,
        params=params,
        protocol=protocol,
        matrix=matrix,
        curves=tuple(curves),
    )
