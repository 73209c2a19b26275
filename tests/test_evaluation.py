import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turnout import (
    ConfusionMatrix,
    Dataset,
    Hyperparams,
    Protocol,
    UsageError,
    class_accuracy,
    evaluate,
    held_out_scores,
    load_election_corpus,
    majority_baseline,
    per_class_metrics,
    stratified_folds,
)
from turnout import evaluation

import oracles
from oracles import tiny_dataset


@pytest.fixture(scope="module")
def corpus():
    return load_election_corpus()


TEST_ON_TRAIN = Protocol(kind="test-on-train")


def cv(folds=10, seed=42):
    return Protocol(kind="cv", folds=folds, seed=seed)


# ------------------------------------------------------------- folding


def test_folds_are_balanced_within_each_class(corpus):
    fold_of = stratified_folds(corpus, folds=10, seed=0)
    labels = corpus.label_array
    for c in range(3):
        sizes = np.bincount(fold_of[labels == c], minlength=10)
        assert max(sizes) - min(sizes) <= 1
        assert sizes.sum() == (labels == c).sum()


def test_fold_indices_cover_every_record(corpus):
    fold_of = stratified_folds(corpus, folds=10, seed=3)
    assert fold_of.shape == (corpus.n,) and fold_of.dtype == np.intp
    assert not fold_of.flags.writeable
    assert ((0 <= fold_of) & (fold_of < 10)).all()


def test_folds_equal_to_n_is_leave_one_out(corpus):
    fold_of = stratified_folds(corpus, folds=corpus.n, seed=5)
    assert sorted(fold_of.tolist()) == list(range(corpus.n))


def test_fold_assignment_is_seed_deterministic(corpus):
    a = stratified_folds(corpus, folds=10, seed=42)
    b = stratified_folds(corpus, folds=10, seed=42)
    c = stratified_folds(corpus, folds=10, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
    fold_of = stratified_folds(ds, folds=folds, seed=seed).tolist()
    # balance holds within every class and over the whole dataset
    groups = [fold_of] + [
        [f for f, y in zip(fold_of, labels) if y == c] for c in range(3)
    ]
    for group in groups:
        if not group:
            continue
        occupancy = Counter(group)
        sizes = [occupancy.get(f, 0) for f in range(folds)]
        assert max(sizes) - min(sizes) <= 1


# seeds of any size, and the word boundaries where SeedSequence takes
# another 32-bit word and, past 2**128, mixes words beyond its pool of four
SEEDS = st.integers(min_value=0, max_value=2**200) | st.sampled_from(
    [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**128 + 1, 2**160])


@given(
    labels=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=60),
    seed=SEEDS,
    data=st.data(),
)
def test_folds_match_the_per_record_deal(labels, seed, data):
    folds = data.draw(st.integers(min_value=2, max_value=len(labels)))
    ds = tiny_dataset([(0,)] * len(labels), labels, [2], 4)
    want = oracles.stratified_folds(labels, 4, folds, seed)
    assert stratified_folds(ds, folds=folds, seed=seed).tolist() == list(want)


@settings(deadline=None)
@given(seed=SEEDS, lengths=st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=5))
def test_the_stream_shuffles_as_numpys_generator(seed, lengths):
    # one stream across the lists: an odd number of 32-bit draws leaves the
    # high half of a 64-bit output for the next list.  numpy switches to
    # 64-bit draws for a list of more than 2**32 items, which is not tested.
    words = evaluation._pcg64_words(seed)
    got = []
    for n in lengths:
        items = list(range(n))
        evaluation._shuffle(items, words)
        got.append(items)
    assert got == oracles.permutations(seed, lengths)


def test_cv_protocol_stores_numpy_integers_as_int(corpus):
    protocol = Protocol("cv", np.int64(5), np.uint8(3))
    assert protocol == cv(5, 3) and type(protocol.folds) is int and type(protocol.seed) is int
    assert protocol.describe() == "stratified 5-fold cross-validation (seed 3)"
    assert np.array_equal(stratified_folds(corpus, np.int32(5), np.int64(3)),
                          stratified_folds(corpus, 5, 3))


# ------------------------------------------------- confusion + metrics


def test_confusion_matrix_from_predictions():
    m = ConfusionMatrix.from_predictions(
        actual=[0, 0, 1, 1, 1], predicted=[0, 1, 1, 1, 0], labels=("a", "b")
    )
    assert m.counts == ((1, 1), (1, 2))
    assert m.n == 5


def test_confusion_matrix_from_predictions_refuses_records_it_cannot_count():
    # a class index past k once landed in the next row's cells, and one
    # prediction was broadcast over every record
    labels = ("a", "b", "c")
    for actual, predicted, record in [
        ([0, 1], [3, 0], 0), ([0, 1], [0, -1], 1), ([0, 3, 1], [0, 0, 1], 1),
        ([0, 1], [0], 1), ([0], [0, 1], 1), ([], [2], 0),
    ]:
        message = f"^record {record}: needs an actual and a predicted class in 0..2$"
        with pytest.raises(ValueError, match=message):
            ConfusionMatrix.from_predictions(actual, predicted, labels)
    with pytest.raises(ValueError, match="^predicted classes must be integers, got float64 values$"):
        ConfusionMatrix.from_predictions([0, 1], [0.0, 1.5], labels)
    empty = ConfusionMatrix.from_predictions([], [], labels)
    assert empty.counts == ((0, 0, 0),) * 3 and empty.n == 0


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


@pytest.mark.parametrize("folds", [2, 10, 100])
def test_cv_splits_partition_the_records(corpus, folds):
    assert folds <= corpus.n
    splits = list(cv(folds, seed=9).splits(corpus))
    assert len(splits) == folds
    held = np.concatenate([test for _, test in splits])
    assert sorted(held.tolist()) == list(range(corpus.n))  # each record held out once
    everything = np.arange(corpus.n)
    for train_idx, test_idx in splits:
        assert test_idx.size > 0
        assert np.array_equal(train_idx, np.setdiff1d(everything, test_idx))
    want = oracles.stratified_folds(corpus.label_array.tolist(), 3, folds, 9)
    got = [0] * corpus.n
    for f, (_, test_idx) in enumerate(splits):
        for i in test_idx.tolist():
            got[i] = f
    assert tuple(got) == want


def test_leave_one_out_splits_are_made_one_at_a_time():
    rng = np.random.default_rng(3)
    n = 2000
    data = tiny_dataset(rng.integers(0, 3, (n, 4)).tolist(), rng.integers(0, 3, n).tolist(),
                        [3, 3, 3, 3], 3)
    tracemalloc.start()
    try:
        held = [test_idx.item() for _, test_idx in cv(folds=n, seed=1).splits(data)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(held) == list(range(n))
    # all n pairs at once would be n * (n - 1) * 8 bytes, about 32 MB
    assert peak < 1_000_000


def test_cv_splits_raise_usage_errors_at_the_call(corpus):
    with pytest.raises(UsageError, match=f"folds must be between 2 and {corpus.n}"):
        cv(folds=corpus.n + 1).splits(corpus)


def test_test_on_train_split_is_all_records_twice(corpus):
    (train_idx, test_idx), = TEST_ON_TRAIN.splits(corpus)
    assert np.array_equal(train_idx, np.arange(corpus.n))
    assert np.array_equal(test_idx, np.arange(corpus.n))


@pytest.mark.parametrize("protocol, calls", [(cv(folds=7), 7), (TEST_ON_TRAIN, 1)])
def test_one_model_is_trained_per_split(corpus, monkeypatch, protocol, calls):
    trained = []
    real = evaluation.train

    def spy(data, algorithm, params):
        trained.append(data.n)
        return real(data, algorithm, params)

    monkeypatch.setattr(evaluation, "train", spy)
    held_out_scores(corpus, "naive-bayes", protocol=protocol)
    assert len(trained) == calls


@pytest.mark.parametrize("protocol", [cv(folds=2), TEST_ON_TRAIN])
def test_evaluation_refuses_unlabeled_data(protocol):
    data = tiny_dataset([(0,), (1,)], None, [2], 2)
    for run in (held_out_scores, evaluate):
        with pytest.raises(ValueError, match="^evaluation needs a labeled dataset$"):
            run(data, "knn", protocol=protocol)


def test_folds_depend_only_on_labels_and_seed(corpus):
    # every algorithm of one run is given the same folds, so its
    # predictions pair record by record with the others'
    columns = np.random.default_rng(0).permuted(corpus.matrix, axis=0)  # each on its own
    scrambled = Dataset(corpus.schema, tuple(map(tuple, columns.tolist())),
                        tuple(corpus.label_array.tolist()))
    assert all(not np.array_equal(a, b) for a, b in zip(scrambled.matrix.T, corpus.matrix.T))
    for a, b in zip(cv().splits(corpus), cv().splits(scrambled), strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_resubstitution_knn_memorises_distinct_records():
    # all rows distinct, so with k=1 every record is its own nearest neighbor
    rows = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    data = tiny_dataset(rows, [0, 0, 0, 1, 1, 1], [2, 2, 2], 2)
    params = Hyperparams(knn_k=1)
    matrix = evaluate(data, "knn", params, TEST_ON_TRAIN).matrix
    assert class_accuracy(matrix) == 1.0
    assert matrix.n == data.n
    assert np.allclose(held_out_scores(data, "knn", params, TEST_ON_TRAIN).sum(axis=1), 1.0)


def test_resubstitution_covers_the_corpus(corpus):
    params = Hyperparams(knn_k=1)
    matrix = evaluate(corpus, "knn", params, TEST_ON_TRAIN).matrix
    scores = held_out_scores(corpus, "knn", params, TEST_ON_TRAIN)
    assert matrix.n == corpus.n
    assert np.allclose(scores.sum(axis=1), 1.0)
    # identical rows with conflicting labels keep even 1-nn resubstitution
    # below a perfect score; anything above the baseline is fine here
    assert class_accuracy(matrix) >= 0.84


def test_cross_validation_matrix_covers_every_record(corpus):
    matrix = evaluate(corpus, "naive-bayes", protocol=cv(seed=7)).matrix
    scores = held_out_scores(corpus, "naive-bayes", protocol=cv(seed=7))
    assert matrix.n == corpus.n
    assert scores.shape == (corpus.n, 3)
    assert np.allclose(scores.sum(axis=1), 1.0)


def test_cross_validation_is_seed_deterministic(corpus):
    assert evaluate(corpus, "knn", protocol=cv()) == evaluate(corpus, "knn", protocol=cv())
    s1 = held_out_scores(corpus, "knn", protocol=cv())
    s2 = held_out_scores(corpus, "knn", protocol=cv())
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("algo", ["knn", "naive-bayes", "tree"])
def test_cross_validation_never_builds_fold_row_tuples(corpus, monkeypatch, algo):
    subsets = []
    take = Dataset.subset

    def spy(self, indices):
        subsets.append(take(self, indices))
        return subsets[-1]

    monkeypatch.setattr(Dataset, "subset", spy)
    held_out_scores(corpus, algo, protocol=cv())
    assert len(subsets) == 20  # a training and a held-out subset per fold
    for subset in subsets:
        assert vars(subset).keys() == {"schema", "matrix", "label_array"}


def test_duplicated_records_cross_validate_perfectly():
    # three copies of six distinct records: every held-out record has an
    # identical twin left in training, so 1-nn must score a clean diagonal
    unique = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    rows = unique * 3
    labels = [0, 0, 0, 1, 1, 1] * 3
    data = tiny_dataset(rows, labels, [2, 2, 2], 2)
    fold_of = stratified_folds(data, folds=3, seed=0)
    for g, row in enumerate(unique):
        copies = [i for i, r in enumerate(rows) if r == row]
        spread = {int(fold_of[i]) for i in copies}
        assert len(spread) >= 2, f"premise broken: group {g} sits in one fold"
    matrix = evaluate(data, "knn", Hyperparams(knn_k=1), cv(folds=3, seed=0)).matrix
    assert class_accuracy(matrix) == 1.0
    assert matrix.counts == ((9, 0), (0, 9))


# ---------------------------------------------------------- evaluate()


def test_evaluate_assembles_full_report(corpus):
    report = evaluate(corpus, "tree", protocol=TEST_ON_TRAIN)
    assert report.algorithm == "tree"
    assert report.matrix.n == corpus.n
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
