from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turnout import (
    ConfusionMatrix,
    Dataset,
    Hyperparams,
    Protocol,
    class_accuracy,
    cross_validate,
    evaluate,
    load_election_corpus,
    majority_baseline,
    per_class_metrics,
    stratified_folds,
)
from turnout import test_on_train as resubstitute  # plain name would be collected as a test

import oracles
from oracles import tiny_dataset


@pytest.fixture(scope="module")
def corpus():
    return load_election_corpus()


# ------------------------------------------------------------- folding


def test_folds_are_balanced_within_each_class(corpus):
    assignment = stratified_folds(corpus, folds=10, seed=0)
    labels = corpus.labels
    for c in range(3):
        per_fold = Counter(f for f, y in zip(assignment.fold_of, labels) if y == c)
        sizes = [per_fold.get(f, 0) for f in range(10)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == labels.count(c)


def test_fold_indices_cover_every_record(corpus):
    assignment = stratified_folds(corpus, folds=10, seed=3)
    assert len(assignment.fold_of) == corpus.n
    assert all(0 <= f < 10 for f in assignment.fold_of)


def test_folds_equal_to_n_is_leave_one_out(corpus):
    assignment = stratified_folds(corpus, folds=corpus.n, seed=5)
    occupancy = Counter(assignment.fold_of)
    assert all(occupancy[f] == 1 for f in range(corpus.n))


def test_fold_assignment_is_seed_deterministic(corpus):
    a = stratified_folds(corpus, folds=10, seed=42)
    b = stratified_folds(corpus, folds=10, seed=42)
    c = stratified_folds(corpus, folds=10, seed=43)
    assert a.fold_of == b.fold_of
    assert a.fold_of != c.fold_of


def test_fold_count_bounds(corpus):
    with pytest.raises(ValueError):
        stratified_folds(corpus, folds=1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(corpus, folds=corpus.n + 1, seed=0)


def test_folds_reject_a_negative_seed(corpus):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        stratified_folds(corpus, folds=10, seed=-1)


def test_folds_reject_unlabeled_data():
    data = tiny_dataset([(0,), (1,)], None, [2], 2)
    with pytest.raises(ValueError):
        stratified_folds(data, folds=2, seed=0)


@given(
    labels=st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_fold_balance_property(labels, seed, data):
    n = len(labels)
    folds = data.draw(st.integers(min_value=2, max_value=n))
    ds = tiny_dataset([(0,)] * n, labels, [2], 3)
    assignment = stratified_folds(ds, folds=folds, seed=seed)
    # balance holds within every class and over the whole dataset
    groups = [list(assignment.fold_of)] + [
        [f for f, y in zip(assignment.fold_of, labels) if y == c] for c in range(3)
    ]
    for group in groups:
        if not group:
            continue
        occupancy = Counter(group)
        sizes = [occupancy.get(f, 0) for f in range(folds)]
        assert max(sizes) - min(sizes) <= 1


@given(
    labels=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_folds_match_the_per_record_deal(labels, seed, data):
    folds = data.draw(st.integers(min_value=2, max_value=len(labels)))
    ds = tiny_dataset([(0,)] * len(labels), labels, [2], 4)
    want = oracles.stratified_folds(labels, 4, folds, seed)
    assert stratified_folds(ds, folds=folds, seed=seed).fold_of == want


# ------------------------------------------------- confusion + metrics


def test_confusion_matrix_from_predictions():
    m = ConfusionMatrix.from_predictions(
        actual=[0, 0, 1, 1, 1], predicted=[0, 1, 1, 1, 0], labels=("a", "b")
    )
    assert m.counts == ((1, 1), (1, 2))
    assert m.n == 5


def test_confusion_matrix_must_be_square():
    with pytest.raises(ValueError):
        ConfusionMatrix(counts=((1, 2),), labels=("a", "b"))
    with pytest.raises(ValueError):
        ConfusionMatrix(counts=((1,), (2,)), labels=("a", "b"))
    with pytest.raises(ValueError):
        ConfusionMatrix(counts=((1, -1), (0, 2)), labels=("a", "b"))


def test_class_accuracy_hand_example():
    m = ConfusionMatrix(counts=((2, 1), (0, 3)), labels=("a", "b"))
    assert class_accuracy(m) == pytest.approx(5 / 6, abs=1e-12)


def test_class_accuracy_rejects_empty_matrix():
    m = ConfusionMatrix(counts=((0, 0), (0, 0)), labels=("a", "b"))
    with pytest.raises(ValueError):
        class_accuracy(m)


@given(st.data())
def test_class_accuracy_is_permutation_invariant(data):
    k = data.draw(st.integers(min_value=2, max_value=4))
    cell = st.integers(min_value=0, max_value=20)
    counts = [[data.draw(cell) for _ in range(k)] for _ in range(k)]
    counts[0][0] += 1  # keep the grand total positive
    perm = data.draw(st.permutations(range(k)))
    labels = tuple(f"c{i}" for i in range(k))
    m = ConfusionMatrix(counts=tuple(tuple(r) for r in counts), labels=labels)
    shuffled = ConfusionMatrix(
        counts=tuple(tuple(counts[perm[i]][perm[j]] for j in range(k)) for i in range(k)),
        labels=labels,
    )
    assert class_accuracy(m) == pytest.approx(class_accuracy(shuffled), abs=1e-12)


def test_per_class_metrics_hand_example():
    m = ConfusionMatrix(counts=((3, 1), (2, 4)), labels=("a", "b"))
    got = per_class_metrics(m, 0)
    assert got.label == "a"
    assert got.accuracy == pytest.approx(0.7, abs=1e-12)
    assert got.sensitivity == pytest.approx(0.75, abs=1e-12)
    assert got.specificity == pytest.approx(4 / 6, abs=1e-12)
    assert got.precision == pytest.approx(0.6, abs=1e-12)
    assert got.recall == got.sensitivity
    assert got.f1 == pytest.approx(2 / 3, abs=1e-12)
    assert got.undefined == frozenset()


def test_per_class_metrics_undefined_precision_and_f1():
    # class a is never predicted and never correct
    m = ConfusionMatrix(counts=((0, 2), (0, 8)), labels=("a", "b"))
    got = per_class_metrics(m, 0)
    assert got.undefined == frozenset({"precision", "f1"})
    assert got.sensitivity == 0.0
    assert got.specificity == 1.0


def test_per_class_metrics_undefined_when_class_absent():
    m = ConfusionMatrix(counts=((0, 0), (0, 5)), labels=("a", "b"))
    got = per_class_metrics(m, 0)
    assert got.undefined == frozenset({"sensitivity", "recall", "precision", "f1"})
    assert got.specificity == 1.0


def test_per_class_metrics_index_bounds():
    m = ConfusionMatrix(counts=((1, 0), (0, 1)), labels=("a", "b"))
    with pytest.raises(ValueError):
        per_class_metrics(m, 2)


def test_majority_baseline(corpus):
    assert majority_baseline(corpus) == pytest.approx(0.84, abs=1e-12)
    data = tiny_dataset([(0,)] * 5, [0, 1, 1, 1, 0], [2], 2)
    assert majority_baseline(data) == pytest.approx(0.6, abs=1e-12)



def test_a_dataset_without_records_is_named_not_divided_by(corpus):
    empty = corpus.subset([])
    assert empty.labeled and empty.n == 0
    with pytest.raises(ValueError, match="^the dataset has no records; the majority"):
        majority_baseline(empty)
    with pytest.raises(ValueError, match="^the dataset has no records; stratified folds"):
        stratified_folds(empty, folds=10, seed=0)


# ----------------------------------------------------------- protocols


def test_protocol_validation_and_description():
    cv = Protocol(kind="cv", folds=10, seed=42)
    assert "10-fold" in cv.describe() and "42" in cv.describe()
    tot = Protocol(kind="test-on-train")
    assert tot.describe() == "test on training data"
    with pytest.raises(ValueError):
        Protocol(kind="bootstrap")
    with pytest.raises(ValueError):
        Protocol(kind="cv", folds=10)  # seed missing


def test_resubstitution_knn_memorises_distinct_records():
    # all rows distinct, so with k=1 every record is its own nearest neighbor
    rows = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    data = tiny_dataset(rows, [0, 0, 0, 1, 1, 1], [2, 2, 2], 2)
    matrix, scores = resubstitute(data, "knn", Hyperparams(knn_k=1))
    assert class_accuracy(matrix) == 1.0
    assert matrix.n == data.n
    assert np.allclose(scores.sum(axis=1), 1.0)


def test_resubstitution_covers_the_corpus(corpus):
    matrix, scores = resubstitute(corpus, "knn", Hyperparams(knn_k=1))
    assert matrix.n == corpus.n
    assert np.allclose(scores.sum(axis=1), 1.0)
    # identical rows with conflicting labels keep even 1-nn resubstitution
    # below a perfect score; anything above the baseline is fine here
    assert class_accuracy(matrix) >= 0.84


def test_cross_validation_matrix_covers_every_record(corpus):
    matrix, scores = cross_validate(corpus, "naive-bayes", folds=10, seed=7)
    assert matrix.n == corpus.n
    assert scores.shape == (corpus.n, 3)
    assert np.allclose(scores.sum(axis=1), 1.0)


def test_cross_validation_is_seed_deterministic(corpus):
    m1, s1 = cross_validate(corpus, "knn", folds=10, seed=42)
    m2, s2 = cross_validate(corpus, "knn", folds=10, seed=42)
    assert m1.counts == m2.counts
    assert np.array_equal(s1, s2)


def test_thread_count_never_changes_results(corpus):
    for algo in ("knn", "naive-bayes", "tree"):
        m1, s1 = cross_validate(corpus, algo, folds=10, seed=42, jobs=1)
        m4, s4 = cross_validate(corpus, algo, folds=10, seed=42, jobs=4)
        assert m1.counts == m4.counts
        assert np.array_equal(s1, s4)


@pytest.mark.parametrize("algo", ["knn", "naive-bayes", "tree"])
def test_cross_validation_never_builds_fold_row_tuples(corpus, monkeypatch, algo):
    subsets = []
    take = Dataset.subset

    def spy(self, indices):
        subsets.append(take(self, indices))
        return subsets[-1]

    monkeypatch.setattr(Dataset, "subset", spy)
    cross_validate(corpus, algo, folds=10, seed=42)
    assert len(subsets) == 20  # a training and a held-out subset per fold
    for subset in subsets:
        assert subset._rows is None and subset._labels is None


def test_duplicated_records_cross_validate_perfectly():
    # three copies of six distinct records: every held-out record has an
    # identical twin left in training, so 1-nn must score a clean diagonal
    unique = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    rows = unique * 3
    labels = [0, 0, 0, 1, 1, 1] * 3
    data = tiny_dataset(rows, labels, [2, 2, 2], 2)
    assignment = stratified_folds(data, folds=3, seed=0)
    for g, row in enumerate(unique):
        copies = [i for i, r in enumerate(rows) if r == row]
        spread = {assignment.fold_of[i] for i in copies}
        assert len(spread) >= 2, f"premise broken: group {g} sits in one fold"
    matrix, _ = cross_validate(data, "knn", Hyperparams(knn_k=1), folds=3, seed=0)
    assert class_accuracy(matrix) == 1.0
    assert matrix.counts == ((9, 0), (0, 9))


# ---------------------------------------------------------- evaluate()


def test_evaluate_assembles_full_report(corpus):
    report = evaluate(corpus, "tree", protocol=Protocol(kind="test-on-train"))
    assert report.algorithm == "tree"
    assert report.matrix.n == corpus.n
    assert len(report.per_class) == 3
    # every class has positives and negatives: roc + lift + calibration each
    assert len(report.curves) == 9
    kinds = Counter(c.kind for c in report.curves)
    assert kinds == {"roc": 3, "lift": 3, "calibration": 3}


def test_evaluate_omits_curves_without_both_outcomes():
    data = tiny_dataset([(0,), (1,), (0,), (1,)], [0, 0, 0, 0], [2], 2)
    report = evaluate(data, "naive-bayes", protocol=Protocol(kind="test-on-train"))
    kinds = [(c.kind, c.label) for c in report.curves]
    assert ("roc", "c0") not in kinds  # no negatives for c0
    assert ("lift", "c1") not in kinds  # no positives for c1
    assert ("lift", "c0") in kinds
    assert sum(1 for k, _ in kinds if k == "calibration") == 2


def test_evaluate_cv_defaults(corpus):
    report = evaluate(corpus, "knn", protocol=Protocol(kind="cv", folds=10, seed=42))
    assert report.protocol.describe() == "stratified 10-fold cross-validation (seed 42)"
    assert report.matrix.n == corpus.n
