import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turnout import (
    ALGORITHMS,
    REFERENCE_TREE_ROOT,
    Hyperparams,
    KnnModel,
    TrainedModel,
    TreeModel,
    class_counts,
    load_election_corpus,
    model_from_text,
    model_to_text,
    predict_label,
    predict_labels,
    train,
)
from turnout import classifiers
from turnout.classifiers import KNN_BLOCK_CELLS

import oracles
from oracles import entropy, info_gain, table_as_tree, tiny_dataset


# --------------------------------------------------------- hamming


def test_hamming_examples():
    # 1-NN takes the label of the training record that disagrees with the
    # query on the fewest attributes, the earlier record on a tie
    data = tiny_dataset([(1, 0, 1), (0, 1, 1), (0, 1, 2)], [0, 1, 2], [2, 2, 3], 3)
    model = train(data, "knn", Hyperparams(knn_k=1))
    assert model.predict_proba_row((0, 1, 2)).tolist() == [0.0, 0.0, 1.0]  # distances 3, 1, 0
    assert model.predict_proba_row((1, 0, 0)).tolist() == [1.0, 0.0, 0.0]  # distances 1, 3, 3
    assert model.predict_proba_row((0, 1, 0)).tolist() == [0.0, 1.0, 0.0]  # distances 3, 1, 1


def test_hamming_rejects_length_mismatch():
    model = train(tiny_dataset([(0, 1, 2)], [0], [2, 2, 3], 2), "knn")
    with pytest.raises(ValueError, match=r"records have shape \(1, 2\), model expects \(m, 3\)"):
        model.predict_proba_row((0, 1))


# ----------------------------------------------------- predict_label


def test_predict_label_argmax_and_ties():
    assert predict_label([0.2, 0.5, 0.3]) == 1
    # exact tie goes to the earlier class
    assert predict_label([0.4, 0.4, 0.2]) == 0
    assert predict_label([0.0, 0.5, 0.5]) == 1


def test_predict_label_rejects_bad_vectors():
    with pytest.raises(ValueError):
        predict_label([])
    with pytest.raises(ValueError):
        predict_label([0.3, 0.3])  # sums to 0.6


def test_predict_labels_is_row_wise_predict_label():
    proba = np.array([[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])
    assert predict_labels(proba).tolist() == [predict_label(row) for row in proba] == [1, 0, 1, 0]
    with pytest.raises(ValueError, match="0.6"):
        predict_labels(np.array([[1.0, 0.0], [0.3, 0.3], [0.1, 0.1]]))  # first bad row is named


def test_predict_labels_refuses_rows_that_sum_to_nan():
    # abs(nan - 1) > tolerance is False, so a NaN row once passed and got class 0
    with pytest.raises(ValueError, match="^probabilities sum to nan, not 1$"):
        predict_labels(np.array([[1.0, 0.0], [np.nan, np.nan]]))
    with pytest.raises(ValueError, match="^probabilities sum to nan, not 1$"):
        predict_label([np.nan, 1.0])


# ---------------------------------------------------------------- knn


def test_knn_single_training_record():
    data = tiny_dataset([(0, 0)], [1], [2, 2], 2)
    model = train(data, "knn", Hyperparams(knn_k=5))
    assert model.predict_proba_batch([(1, 1)])[0].tolist() == [0.0, 1.0]


def test_knn_distance_tie_prefers_earlier_record():
    # both records are at distance 1 from the query; k=1 must take row 0
    data = tiny_dataset([(0, 0), (1, 1)], [0, 1], [2, 2], 2)
    model = train(data, "knn", Hyperparams(knn_k=1))
    assert model.predict_proba_batch([(0, 1)])[0].tolist() == [1.0, 0.0]


def test_knn_k_of_n_returns_training_prior():
    data = tiny_dataset([(0,), (0,), (1,), (1,)], [0, 0, 0, 1], [2], 2)
    model = train(data, "knn", Hyperparams(knn_k=4))
    assert model.predict_proba_batch([(0,)])[0].tolist() == [0.75, 0.25]
    # k beyond n clamps to n
    model = train(data, "knn", Hyperparams(knn_k=100))
    assert model.predict_proba_batch([(1,)])[0].tolist() == [0.75, 0.25]


def test_knn_on_corpus_first_record_matches_exhaustive_scan():
    data = load_election_corpus()
    model = train(data, "knn", Hyperparams(knn_k=5))
    rows, labels = data.matrix.tolist(), data.label_array.tolist()
    got = model.predict_proba_batch(data.matrix[:1])[0]
    want = oracles.knn_proba(rows, labels, 3, 5, rows[0])
    assert got.tolist() == [float(w) for w in want]


def test_knn_model_refuses_labels_its_vote_cannot_count():
    # a label equal to the class count would land in the next query's row
    data = load_election_corpus()
    rows, k = data.matrix[:3], data.schema.n_classes
    for labels in ([0, k, 0], [0, -1, 0], [0, 0], [[0], [0], [0]]):
        with pytest.raises(ValueError, match=r"knn needs one label in 0\.\.2 per row"):
            KnnModel(data.schema, Hyperparams(), rows, labels)


def _changed(array, index, value):
    """A copy of ``array`` with ``array[index] = value``."""
    out = np.array(array)
    out[index] = value
    return out


def _negative_cell(counts):
    """``counts`` with cell (0, 0) at -1 and row 1 making up the difference,
    so every attribute's rows still sum to the class counts."""
    return _changed(_changed(counts, (0, 0), -1), (1, 0), counts[1, 0] + counts[0, 0] + 1)


def _leaf_counts(tree, counts):
    """The tree's count table with ``counts`` at the leaf that the first
    corpus record reaches."""
    node, record = 0, load_election_corpus().matrix[0]
    while tree.attribute[node] >= 0:
        node = tree.children[node, record[tree.attribute[node]]]
    return _changed(tree.counts.astype(np.asarray(counts).dtype), node, counts)


@pytest.mark.parametrize("algo, arrays, message", [
    ("naive-bayes", lambda m: (0 * m.class_counts, 0 * m.counts),
     "class counts must be 3 non-negative integers with a positive total"),
    ("naive-bayes", lambda m: (m.class_counts, m.counts[:-1]),
     "count table needs 29 rows of 3 non-negative integers"),
    ("naive-bayes", lambda m: (m.class_counts, 2 * m.counts),
     "count table 0 does not sum to the class counts"),
    ("naive-bayes", lambda m: (m.class_counts, _negative_cell(m.counts)),
     "count table needs 29 rows of 3 non-negative integers"),
    ("naive-bayes", lambda m: (m.class_counts, _changed(m.counts / 1, (0, 0), m.counts[0, 0] + 0.5)),
     "count table needs 29 rows of 3 non-negative integers"),
    # NaN and inf are no whole numbers; each raised a numpy RuntimeWarning first
    ("naive-bayes", lambda m: (_changed(m.class_counts / 1, 0, np.inf), m.counts),
     "class counts must be 3 non-negative integers with a positive total"),
    ("naive-bayes", lambda m: (m.class_counts, _changed(m.counts / 1, (0, 0), np.nan)),
     "count table needs 29 rows of 3 non-negative integers"),
    ("tree", lambda m: (m.attribute, _leaf_counts(m, [0, 0, 0])),
     r"leaf node \d+ has an invalid class distribution"),
    ("tree", lambda m: (m.attribute, _leaf_counts(m, [-1, 5, 0])),
     r"leaf node \d+ has an invalid class distribution"),
    ("tree", lambda m: (m.attribute, _leaf_counts(m, [2.5, 0, 0])),
     r"leaf node \d+ has an invalid class distribution"),
    # node 0 is the corpus tree's root split; 2**64 was an OverflowError, -5 and 0.5 built
    ("tree", lambda m: (m.attribute, _changed(m.counts.astype(object), (0, 0), 2**64)),
     "split node 0 has invalid class counts"),
    ("tree", lambda m: (m.attribute, _changed(m.counts, (0, 0), -5)),
     "split node 0 has invalid class counts"),
    ("tree", lambda m: (m.attribute, _changed(m.counts / 1, (0, 0), 0.5)),
     "split node 0 has invalid class counts"),
    ("tree", lambda m: (m.attribute, _changed(m.counts / 1, (0, 0), np.inf)),
     "split node 0 has invalid class counts"),
    ("tree", lambda m: (m.attribute, _leaf_counts(m, np.array([np.nan, 5, 0], dtype=object))),
     r"leaf node \d+ has an invalid class distribution"),
    # the corpus has 9 features; this was an IndexError
    ("tree", lambda m: (_changed(m.attribute, 0, 9), m.counts),
     "split node 0 names an unknown attribute"),
    # the corpus has 3 classes; this built, and predicted 2-vectors
    ("tree", lambda m: (m.attribute, m.counts[:, :2] + 1),
     r"tree counts have shape \(\d+, 2\), expected \(\d+, 3\): one row of class counts per node"),
    # this was a bare IndexError
    ("tree", lambda m: (m.attribute / 1, m.counts),
     "tree attribute table must be integers, got float64 values"),
], ids=["nb-all-zero", "nb-short-table", "nb-doubled-table", "nb-negative-cell",
        "nb-fractional-cell", "nb-inf-class-count", "nb-nan-cell", "tree-all-zero-leaf",
        "tree-negative-leaf-count", "tree-fractional-leaf-count", "tree-huge-split-count",
        "tree-negative-split-count", "tree-fractional-split-count", "tree-inf-split-count",
        "tree-nan-leaf-count", "tree-unknown-attribute", "tree-narrow-counts",
        "tree-float-attribute"])
def test_directly_built_model_refuses_tables_it_cannot_predict_from(algo, arrays, message):
    # each table would predict NaN or a wrong distribution, or fail inside
    # numpy, so the constructor refuses it, naming the fault
    data = load_election_corpus()
    model = train(data, algo)
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(model)(data.schema, model.params, *arrays(model))


small = st.integers(min_value=0, max_value=1)


@st.composite
def binary_dataset(draw, min_records=1, max_records=16, max_attrs=4, classes=(2, 3)):
    n_attrs = draw(st.integers(min_value=1, max_value=max_attrs))
    n_classes = draw(st.sampled_from(classes))
    n = draw(st.integers(min_value=min_records, max_value=max_records))
    rows = [tuple(draw(small) for _ in range(n_attrs)) for _ in range(n)]
    labels = [draw(st.integers(min_value=0, max_value=n_classes - 1)) for _ in range(n)]
    query = tuple(draw(small) for _ in range(n_attrs))
    return rows, labels, [2] * n_attrs, n_classes, query


@given(binary_dataset(), st.integers(min_value=1, max_value=20))
def test_knn_matches_oracle_on_small_datasets(case, k):
    rows, labels, sizes, n_classes, query = case
    data = tiny_dataset(rows, labels, sizes, n_classes)
    got = train(data, "knn", Hyperparams(knn_k=k)).predict_proba_batch([query])[0]
    want = [float(w) for w in oracles.knn_proba(rows, labels, n_classes, k, query)]
    assert got.tolist() == want
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


# -------------------------------------------------------- naive bayes


def test_nb_hand_worked_example():
    # single binary attribute; three of four records positive
    data = tiny_dataset([(0,), (0,), (1,), (1,)], [0, 0, 1, 0], [2], 2)
    model = train(data, "naive-bayes", Hyperparams(nb_alpha=1.0))
    proba = model.predict_proba_batch([(0,)])[0]
    assert proba[0] == pytest.approx(0.84375, abs=1e-12)
    assert proba.sum() == pytest.approx(1.0, abs=1e-12)


def test_nb_alpha_zero_zeroes_unseen_combination():
    data = tiny_dataset([(0,), (1,)], [0, 1], [2], 2)
    model = train(data, "naive-bayes", Hyperparams(nb_alpha=0.0))
    proba = model.predict_proba_batch([(0,)])[0]
    assert proba.tolist() == [1.0, 0.0]


def test_nb_positive_for_all_present_classes_when_smoothed():
    data = tiny_dataset([(0, 0), (1, 1)], [0, 1], [2, 2], 2)
    model = train(data, "naive-bayes", Hyperparams(nb_alpha=0.5))
    proba = model.predict_proba_batch([(0, 1)])[0]
    assert (proba > 0).all()


def test_nb_count_tables_sum_to_class_counts():
    data = load_election_corpus()
    model = train(data, "naive-bayes", Hyperparams())
    assert model.class_counts.tolist() == list(class_counts(data))
    sizes = [a.size for a in data.schema.features]
    assert model.counts.shape == (sum(sizes), 3) and model.counts.dtype == np.int64
    offsets = np.cumsum(sizes) - sizes
    for j, (offset, size) in enumerate(zip(offsets, sizes)):
        assert model.counts[offset : offset + size].sum(axis=0).tolist() == list(class_counts(data))
        # row offsets[j] + v counts the records with value v for attribute j
        for v in range(size):
            assert model.counts[offset + v].tolist() == [
                int(((data.matrix[:, j] == v) & (data.label_array == c)).sum()) for c in range(3)]


@given(binary_dataset(), st.floats(min_value=0.01, max_value=4.0, allow_nan=False))
def test_nb_matches_exact_oracle(case, alpha):
    rows, labels, sizes, n_classes, query = case
    data = tiny_dataset(rows, labels, sizes, n_classes)
    got = train(data, "naive-bayes", Hyperparams(nb_alpha=alpha)).predict_proba_batch([query])[0]
    want = oracles.nb_proba(rows, labels, sizes, n_classes, alpha, query)
    assert np.allclose(got, [float(w) for w in want], atol=1e-12, rtol=0.0)
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------- information gain (oracle)


def test_entropy_examples():
    assert entropy((5, 5)) == pytest.approx(1.0, abs=1e-12)
    assert entropy((4, 0)) == 0.0
    assert entropy((3, 1)) == pytest.approx(0.8113, abs=1e-4)
    assert entropy((84, 10, 6)) == pytest.approx(
        -(0.84 * math.log2(0.84) + 0.10 * math.log2(0.10) + 0.06 * math.log2(0.06)),
        abs=1e-12,
    )


def test_entropy_rejects_empty_distribution():
    with pytest.raises(ValueError):
        entropy((0, 0))
    with pytest.raises(ValueError):
        entropy(())


def test_info_gain_perfect_split_is_parent_entropy():
    data = tiny_dataset([(0,), (0,), (1,), (1,)], [0, 0, 1, 1], [2], 2)
    assert info_gain(data, "a0") == pytest.approx(1.0, abs=1e-12)


def test_info_gain_constant_attribute_is_zero():
    data = tiny_dataset([(0, 0), (0, 1), (0, 0), (0, 1)], [0, 0, 1, 1], [2, 2], 2)
    assert info_gain(data, "a0") == pytest.approx(0.0, abs=1e-12)


def test_info_gain_hand_worked_example():
    # labels (+, +, +, -) against values (A, A, B, B): 0.8113 - 0.5 = 0.3113
    data = tiny_dataset([(0,), (0,), (1,), (1,)], [0, 0, 0, 1], [2], 2)
    assert info_gain(data, "a0") == pytest.approx(0.3113, abs=1e-4)


@given(binary_dataset(min_records=1))
def test_info_gain_bounds(case):
    rows, labels, sizes, n_classes, _ = case
    data = tiny_dataset(rows, labels, sizes, n_classes)
    parent = entropy(class_counts(data))
    for name in data.schema.feature_names:
        gain = info_gain(data, name)
        assert -1e-12 <= gain <= parent + 1e-12


@given(binary_dataset(min_records=1))
def test_tree_root_splits_on_an_attribute_of_greatest_information_gain(case):
    rows, labels, sizes, n_classes, _ = case
    data = tiny_dataset(rows, labels, sizes, n_classes)
    gains = [info_gain(data, name) for name in data.schema.feature_names]
    root = table_as_tree(train(data, "tree", Hyperparams()))
    if root[0] == "split":
        assert gains[root[1]] >= max(gains) - 1e-9 > 0.0
    elif len(set(labels)) > 1 and len(rows) >= 2:
        assert max(gains) < 1e-9


def test_corpus_tree_root_has_the_greatest_information_gain():
    data = load_election_corpus()
    gains = {name: info_gain(data, name) for name in data.schema.feature_names}
    assert max(gains, key=gains.get) == REFERENCE_TREE_ROOT
    root = train(data, "tree", Hyperparams()).attribute[0]
    assert data.schema.feature_names[root] == REFERENCE_TREE_ROOT


# --------------------------------------------------------------- tree


def test_tree_model_refuses_a_table_that_is_not_breadth_first():
    # the numbering fixes every child, so a table can only hold too many or
    # too few nodes, or put a split after its children
    tree = train(load_election_corpus(), "tree")
    n, root, leaf = len(tree.attribute), int(tree.attribute[0]), [1, 0, 0]
    assert tree.domain_sizes[root] == 3
    tables = [
        (np.append(tree.attribute, -1), np.vstack([tree.counts, leaf]),
         f"tree has {n + 1} nodes, expected the root and {n - 1} children"),
        (tree.attribute[:-1], tree.counts[:-1],
         f"tree has {n - 1} nodes, expected the root and {n - 1} children"),
        # node 1 would be its own first child
        (np.array([-1, root, -1, -1]), np.array([leaf] * 4), "split node 1 comes after its children"),
    ]
    for attribute, counts, message in tables:
        with pytest.raises(ValueError, match=f"^{message}$"):
            TreeModel(tree.schema, tree.params, attribute, counts)


def test_tree_model_reads_its_attribute_table_from_any_integer_sequence():
    # a list was a bare TypeError
    tree = train(load_election_corpus(), "tree")
    rebuilt = TreeModel(tree.schema, tree.params, tree.attribute.tolist(), tree.counts)
    assert rebuilt.payload() == tree.payload()
    assert rebuilt.attribute.dtype == np.intp


def test_tree_pure_node_is_a_leaf():
    data = tiny_dataset([(0, 1), (1, 0)], [1, 1], [2, 2], 2)
    assert table_as_tree(train(data, "tree", Hyperparams())) == ("leaf", (0, 2), 1)


def test_tree_two_level_example():
    # a0 separates the classes perfectly, a1 is constant
    data = tiny_dataset([(0, 0), (0, 0), (1, 0), (1, 0)], [0, 0, 1, 1], [2, 2], 2)
    model = train(data, "tree")
    assert table_as_tree(model) == ("split", 0, (("leaf", (2, 0), 0), ("leaf", (0, 2), 1)))
    assert model.predict_proba_row((0, 0)).tolist() == [1.0, 0.0]
    assert model.predict_proba_row((1, 0)).tolist() == [0.0, 1.0]


def test_tree_empty_branch_carries_parent_distribution():
    # domain value v2 never occurs in training
    data = tiny_dataset([(0,), (1,)], [0, 1], [3], 2)
    model = train(data, "tree")
    kind, _, children = table_as_tree(model)
    assert kind == "split"
    assert children[2] == ("leaf", (1, 1), 0)
    assert model.predict_proba_row((2,)).tolist() == [0.5, 0.5]


def test_tree_min_samples_stops_growth():
    data = tiny_dataset([(0,), (1,)], [0, 1], [2], 2)
    assert table_as_tree(train(data, "tree", Hyperparams(tree_min_samples=3)))[0] == "leaf"


def test_tree_max_depth_zero_is_a_stump():
    data = tiny_dataset([(0,), (0,), (1,), (1,)], [0, 0, 1, 1], [2], 2)
    root = table_as_tree(train(data, "tree", Hyperparams(tree_max_depth=0)))
    assert root == ("leaf", (2, 2), 0)  # tie resolves to the earlier class


def test_tree_zero_gain_makes_a_leaf():
    # both attributes are pure noise: every split leaves a (1,1) child mix
    data = tiny_dataset([(0, 0), (0, 1), (1, 0), (1, 1)], [0, 1, 1, 0], [2, 2], 2)
    assert table_as_tree(train(data, "tree", Hyperparams()))[0] == "leaf"


def test_tree_zero_gain_with_proportional_children_makes_a_leaf():
    # (3, 6) splits into (1, 2) and (2, 4): the gain is exactly zero, while
    # the float scores put the children 1.8e-15 below the parent
    rows = [(0,)] * 3 + [(1,)] * 6
    labels = [0, 1, 1] + [0, 0, 1, 1, 1, 1]
    root = train(tiny_dataset(rows, labels, [2], 2), "tree", Hyperparams())
    assert table_as_tree(root) == ("leaf", (3, 6), 1)


def test_tree_exact_gain_tie_goes_to_the_earlier_attribute():
    # a1 relabels a0's values 0 and 1, so both induce the same partition and
    # tie exactly; the float scores order a1 3.6e-15 below a0
    groups = [((0, 1), (1, 2)), ((1, 0), (2, 5)), ((2, 2), (5, 5))]
    rows, labels = [], []
    for values, (n0, n1) in groups:
        rows += [values] * (n0 + n1)
        labels += [0] * n0 + [1] * n1
    kind, attribute, children = table_as_tree(
        train(tiny_dataset(rows, labels, [3, 3], 2), "tree", Hyperparams()))
    assert kind == "split" and attribute == 0
    assert [child[1] for child in children] == [(1, 2), (2, 5), (5, 5)]


def test_tree_perfect_splits_need_no_exact_step(monkeypatch):
    # a0 and a1 both split the classes perfectly and score 0.0; the earlier wins
    def refuse(*args):
        raise AssertionError("a perfect split reached the exact step")

    monkeypatch.setattr(classifiers, "_exact_split", refuse)
    rows = [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (2, 0, 1)]
    root = train(tiny_dataset(rows, [0, 0, 1, 1, 1], [3, 2, 2], 2), "tree", Hyperparams())
    assert table_as_tree(root) == ("split", 0, (("leaf", (2, 0), 0), ("leaf", (0, 2), 1),
                                                ("leaf", (0, 1), 1)))


def test_tree_node_with_only_constant_near_attributes_needs_no_exact_step(monkeypatch):
    # a0 splits the root clearly; in each (3, 1) child both a0 and a1 take one
    # value and score exactly the parent, so the child is a leaf
    def refuse(*args):
        raise AssertionError("a node with constant candidates reached the exact step")

    monkeypatch.setattr(classifiers, "_exact_split", refuse)
    rows = [(0, 0)] * 4 + [(1, 0)] * 4
    labels = [0, 0, 0, 1, 1, 1, 1, 0]
    root = train(tiny_dataset(rows, labels, [2, 2], 2), "tree", Hyperparams())
    assert table_as_tree(root) == oracles.tree(rows, labels, [2, 2], 2)
    assert table_as_tree(root) == ("split", 0, (("leaf", (3, 1), 0), ("leaf", (1, 3), 1)))


def _paths(node, used=()):
    if node[0] == "leaf":
        yield used
        return
    for child in node[2]:
        yield from _paths(child, used + (node[1],))


def test_tree_never_reuses_an_attribute_on_a_path():
    data = load_election_corpus()
    root = table_as_tree(train(data, "tree", Hyperparams()))
    for path in _paths(root):
        assert len(path) == len(set(path))


def test_tree_corpus_root_matches_oracle_argmax():
    data = load_election_corpus()
    kind, attribute, _ = table_as_tree(train(data, "tree", Hyperparams()))
    assert kind == "split"
    sizes = [a.size for a in data.schema.features]
    want = oracles.best_split(data.matrix.tolist(), data.label_array.tolist(), sizes, 3)
    assert attribute == want


def test_tree_training_accuracy_beats_majority_vote():
    data = load_election_corpus()
    model = train(data, "tree")
    predicted = predict_labels(model.predict_proba(data))
    accuracy = float((predicted == data.label_array).mean())
    assert accuracy >= max(class_counts(data)) / data.n


@given(binary_dataset(min_records=2))
@settings(max_examples=150)
def test_tree_root_matches_oracle_on_small_datasets(case):
    rows, labels, sizes, n_classes, _ = case
    data = tiny_dataset(rows, labels, sizes, n_classes)
    root = table_as_tree(train(data, "tree", Hyperparams()))
    if len(set(labels)) == 1:
        assert root[0] == "leaf"
        return
    want = oracles.best_split(rows, labels, sizes, n_classes)
    if want is None:
        assert root[0] == "leaf"
    else:
        assert root[0] == "split"
        assert root[1] == want


@given(binary_dataset(min_records=1))
def test_tree_probabilities_are_normalised(case):
    rows, labels, sizes, n_classes, query = case
    data = tiny_dataset(rows, labels, sizes, n_classes)
    proba = train(data, "tree").predict_proba_row(query)
    assert proba.sum() == pytest.approx(1.0, abs=1e-9)
    assert (proba >= 0).all()


# ------------------------------------------------------------- common


def test_registry_lists_the_model_classes_by_id():
    assert ALGORITHMS == ("knn", "naive-bayes", "tree")
    for algorithm, model_class in classifiers.REGISTRY.items():
        assert issubclass(model_class, TrainedModel) and model_class.algorithm == algorithm


def test_train_rejects_unknown_algorithm():
    data = tiny_dataset([(0,)], [0], [2], 2)
    with pytest.raises(ValueError, match="unknown algorithm"):
        train(data, "forest")


def test_train_rejects_empty_and_unlabeled_data():
    empty = tiny_dataset([], [], [2], 2)
    unlabeled = tiny_dataset([(0,)], None, [2], 2)
    for algo in ALGORITHMS:
        with pytest.raises(ValueError):
            train(empty, algo)
        with pytest.raises(ValueError, match="^training needs a labeled dataset$"):
            train(unlabeled, algo)


@pytest.mark.parametrize("algo", ["knn", "naive-bayes", "tree"])
@pytest.mark.parametrize("value", [-1, 3])  # just below and at attribute 1's domain size
def test_out_of_domain_value_is_rejected_naming_the_attribute(algo, value):
    data = tiny_dataset([(0, 0), (1, 2), (0, 1), (1, 1)], [0, 1, 1, 0], [2, 3], 2)
    model = train(data, algo)
    with pytest.raises(ValueError, match=f"value {value} is outside the domain of attribute 1"):
        model.predict_proba_row((0, value))
    with pytest.raises(ValueError, match="record 1: .* attribute 1"):
        model.predict_proba_batch(np.array([(0, 0), (1, value)]))


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_non_integer_values_are_rejected_not_truncated(algo):
    data = load_election_corpus()
    model = train(data, algo)
    message = "^record values must be integers, got float64 values$"
    with pytest.raises(ValueError, match=message):
        model.predict_proba_row(data.matrix[0] + 0.9)
    with pytest.raises(ValueError, match=message):
        model.predict_proba_batch(data.matrix[:2] + 0.9)
    # an empty batch carries no value to truncate
    assert model.predict_proba_batch(np.zeros((0, 9))).shape == (0, 3)


def test_training_is_deterministic():
    data = load_election_corpus()
    for algo in ("knn", "naive-bayes", "tree"):
        a = train(data, algo).predict_proba(data)
        b = train(data, algo).predict_proba(data)
        assert np.array_equal(a, b)


def test_hyperparams_reject_non_finite_alpha():
    for alpha in (math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            Hyperparams(nb_alpha=alpha)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(knn_k=0)
    with pytest.raises(ValueError):
        Hyperparams(nb_alpha=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(tree_min_samples=1)
    with pytest.raises(ValueError):
        Hyperparams(tree_max_depth=-1)
    # a bool, or anything that is not a real number, is refused by name
    for alpha in (True, np.bool_(False), "1", None, 1j, [1.0]):
        message = f"^nb_alpha must be a real number, got {re.escape(repr(alpha))}$"
        with pytest.raises(ValueError, match=message):
            Hyperparams(nb_alpha=alpha)
    # ints, floats and numpy reals are stored as float
    for alpha in (0, 2, 0.5, np.float32(0.25), np.float64(1.5), np.int64(3)):
        stored = Hyperparams(nb_alpha=alpha).nb_alpha
        assert type(stored) is float and stored == float(alpha)


# ------------------------------------------------------ batch kernels


@st.composite
def tied_problem(draw, max_records=40, max_queries=12):
    """A random small schema with few values per attribute, so Hamming
    distances tie heavily; a training set; and a batch of queries, which
    may repeat training records and each other, in shuffled order."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=3), min_size=1, max_size=4))
    n_classes = draw(st.integers(min_value=2, max_value=4))

    def record():
        return tuple(draw(st.integers(min_value=0, max_value=size - 1)) for size in sizes)

    n = draw(st.integers(min_value=1, max_value=max_records))
    rows = [record() for _ in range(n)]
    labels = [draw(st.integers(min_value=0, max_value=n_classes - 1)) for _ in range(n)]
    queries = [record() for _ in range(draw(st.integers(min_value=1, max_value=max_queries)))]
    queries += draw(st.lists(st.sampled_from(rows), max_size=4))
    queries += draw(st.lists(st.sampled_from(queries), max_size=4))
    return rows, labels, sizes, n_classes, draw(st.permutations(queries))


@given(tied_problem(), st.one_of(st.integers(min_value=1, max_value=5),
                                 st.integers(min_value=40, max_value=60)))
def test_knn_batch_matches_oracle(case, k):
    rows, labels, sizes, n_classes, queries = case
    model = train(tiny_dataset(rows, labels, sizes, n_classes), "knn", Hyperparams(knn_k=k))
    got = model.predict_proba_batch(np.array(queries))
    want = [[float(p) for p in oracles.knn_proba(rows, labels, n_classes, k, q)] for q in queries]
    assert got.tolist() == want
    alone = [model.predict_proba_batch(np.array([q]))[0] for q in queries]
    assert np.array_equal(np.stack(alone), got)


def test_knn_empty_batch():
    model = train(tiny_dataset([(0, 1), (1, 2)], [0, 2], [2, 3], 3), "knn", Hyperparams(knn_k=1))
    for empty in (np.empty((0, 2), dtype=np.intp), np.empty((0, 2)), []):
        got = model.predict_proba_batch(np.array(empty).reshape(0, 2))
        assert got.shape == (0, 3) and got.dtype == np.float64


def test_knn_batch_spanning_several_blocks_matches_oracle():
    rng = np.random.default_rng(7)
    sizes = [2, 3, 2, 3, 2]
    n = 3000
    rows = [tuple(int(rng.integers(size)) for size in sizes) for _ in range(n)]
    labels = [int(c) for c in rng.integers(3, size=n)]
    queries = [tuple(int(rng.integers(size)) for size in sizes) for _ in range(25)]
    # premise: three blocks or more of distinct queries, each searched once
    assert len(set(queries)) > 2 * (KNN_BLOCK_CELLS // n)
    data = tiny_dataset(rows, labels, sizes, 3)
    for k in (1, 7, n + 1):
        got = train(data, "knn", Hyperparams(knn_k=k)).predict_proba_batch(np.array(queries))
        want = [[float(p) for p in oracles.knn_proba(rows, labels, 3, k, q)] for q in queries]
        assert got.tolist() == want


def _knn_case_across_a_word_boundary():
    """W = 75 bits, two code words; attribute 2 holds bits 60..69, so its
    values 3 and 4 sit on either side of the boundary at bit 64."""
    rng = np.random.default_rng(11)
    sizes = [30, 30, 10, 5]
    picks = [(0, 29), (0, 29), (2, 3, 4, 5), (0, 4)]
    rows = [tuple(int(rng.choice(p)) for p in picks) for _ in range(120)]
    queries = [tuple(int(rng.choice(p)) for p in picks) for _ in range(20)]
    return sizes, rows, queries


def _knn_case_with_a_wide_accumulator():
    """130 binary attributes: twice a distance reaches 260, past uint8.
    Training records flip 0..130 of the query's values, so the farthest
    ones would wrap to look nearest in an 8-bit sum."""
    rng = np.random.default_rng(12)
    d = 130
    query = rng.integers(2, size=d)
    rows = []
    for flips in [0, 3, 60, 127, 128, 129, 130, 130, 5, 64, 129, 1]:
        row = query.copy()
        row[rng.permutation(d)[:flips]] ^= 1
        rows.append(tuple(row.tolist()))
    return [2] * d, rows, [tuple(query.tolist()), rows[6], rows[1]]


@pytest.mark.parametrize("case", [_knn_case_across_a_word_boundary,
                                  _knn_case_with_a_wide_accumulator])
def test_knn_wide_codes_match_oracle(case):
    sizes, rows, queries = case()
    rng = np.random.default_rng(13)
    labels = [int(c) for c in rng.integers(3, size=len(rows))]
    data = tiny_dataset(rows, labels, sizes, 3)
    for k in (1, 5, len(rows) + 1):
        got = train(data, "knn", Hyperparams(knn_k=k)).predict_proba_batch(np.array(queries))
        want = [[float(p) for p in oracles.knn_proba(rows, labels, 3, k, q)] for q in queries]
        assert got.tolist() == want


@given(tied_problem(), st.sampled_from([0.0, 1e-3, 1.0, 50.0]))
def test_nb_batch_matches_oracle(case, alpha):
    rows, labels, sizes, n_classes, queries = case
    model = train(tiny_dataset(rows, labels, sizes, n_classes), "naive-bayes",
                              Hyperparams(nb_alpha=alpha))
    got = model.predict_proba_batch(np.array(queries))
    assert np.isfinite(got).all()
    for q, row in zip(queries, got):
        want = oracles.nb_proba(rows, labels, sizes, n_classes, alpha, q)
        assert np.allclose(row, [float(w) for w in want], atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("algo", ALGORITHMS)
@given(tied_problem(), st.integers(min_value=1, max_value=45),
       st.sampled_from([0.0, 1e-3, 1.0, 50.0]))
def test_predict_proba_row_is_the_batch_kernel_on_a_batch_of_one(algo, case, k, alpha):
    rows, labels, sizes, n_classes, queries = case
    model = train(tiny_dataset(rows, labels, sizes, n_classes), algo,
                  Hyperparams(knn_k=k, nb_alpha=alpha))
    clone = model_from_text(model_to_text(model))
    got = model.predict_proba_batch(np.array(queries))
    assert np.array_equal(clone.predict_proba_batch(np.array(queries)), got)
    for trained in (model, clone):
        assert np.array_equal(np.stack([trained.predict_proba_row(q) for q in queries]), got)


def test_nb_alpha_zero_scores_an_absent_class_zero():
    # class 2 is declared but has no training records
    data = tiny_dataset([(0, 1), (1, 1), (1, 0)], [0, 1, 1], [2, 2], 3)
    model = train(data, "naive-bayes", Hyperparams(nb_alpha=0.0))
    proba = model.predict_proba_batch(np.array([(0, 1), (1, 0), (0, 0)]))
    assert proba.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1 / 3, 2 / 3, 0.0]]


def test_nb_alpha_near_the_float_limit_predicts_the_priors_without_a_warning():
    # alpha * domain size overflows; the suite turns an overflow warning into an error
    data = tiny_dataset([(0, 1), (1, 1), (1, 0)], [0, 1, 1], [2, 3], 3)
    model = train(data, "naive-bayes", Hyperparams(nb_alpha=1e308))
    proba = model.predict_proba_batch(np.array([(0, 1), (1, 0), (0, 2)]))
    assert proba.tolist() == [[1 / 3, 2 / 3, 0.0]] * 3


@given(tied_problem())
def test_tree_batch_matches_a_plain_walk(case):
    rows, labels, sizes, n_classes, queries = case
    model = train(tiny_dataset(rows, labels, sizes, n_classes), "tree", Hyperparams())
    assert isinstance(model, TreeModel)
    got = model.predict_proba_batch(np.array(queries))
    assert got.shape == (len(queries), n_classes)
    assert model.predict_proba_batch(np.empty((0, len(sizes)))).shape == (0, n_classes)
    root = oracles.tree(rows, labels, sizes, n_classes)
    for q, row in zip(queries, got):
        node = root
        while node[0] == "split":
            node = node[2][q[node[1]]]
        total = sum(node[1])
        assert row.tolist() == [c / total for c in node[1]]


@given(tied_problem(), st.sampled_from([2, 3, 5]), st.sampled_from([None, 0, 1, 2]))
@settings(max_examples=150)
def test_tree_matches_the_oracle_tree(case, min_samples, max_depth):
    rows, labels, sizes, n_classes, _ = case
    params = Hyperparams(tree_min_samples=min_samples, tree_max_depth=max_depth)
    root = train(tiny_dataset(rows, labels, sizes, n_classes), "tree", params)
    want = oracles.tree(rows, labels, sizes, n_classes, min_samples, max_depth)
    assert table_as_tree(root) == want


def _check_node_counts(model, rows, labels):
    """Assert that every node's in-memory counts, split nodes included, are
    the class tally of the training records that reach it, or its parent's
    counts if none do; returns the number of such empty branches."""
    reach = np.zeros_like(model.counts)
    for row, label in zip(rows, labels):
        node = 0
        while True:
            reach[node, label] += 1
            if model.attribute[node] < 0:
                break
            node = model.children[node, row[model.attribute[node]]]
    parent = {kid: i for i, kids in enumerate(model.children.tolist()) for kid in kids if kid >= 0}
    for i, tally in enumerate(reach):
        want = tally if tally.any() else model.counts[parent[i]]
        assert model.counts[i].tolist() == want.tolist(), f"node {i}"
    return int((~reach.any(axis=1)).sum())


def test_every_tree_node_counts_the_training_records_that_reach_it():
    data = load_election_corpus()
    rows, labels = data.matrix.tolist(), data.label_array.tolist()
    splits = empty = 0
    for params in (Hyperparams(), Hyperparams(tree_min_samples=5),
                   Hyperparams(tree_max_depth=2), Hyperparams(tree_max_depth=0)):
        model = train(data, "tree", params)
        empty += _check_node_counts(model, rows, labels)
        splits += int((model.attribute >= 0).sum())
    # the corpus trees hold split nodes and empty branches below them
    assert splits > 0 and empty > 0


@given(tied_problem(), st.sampled_from([2, 3, 5]), st.sampled_from([None, 0, 1, 2]))
def test_every_tree_node_counts_the_training_records_that_reach_it_on_small_datasets(
        case, min_samples, max_depth):
    rows, labels, sizes, n_classes, _ = case
    params = Hyperparams(tree_min_samples=min_samples, tree_max_depth=max_depth)
    _check_node_counts(train(tiny_dataset(rows, labels, sizes, n_classes), "tree", params),
                       rows, labels)


def test_tree_matches_the_oracle_tree_on_the_corpus():
    data = load_election_corpus()
    sizes = [a.size for a in data.schema.features]
    for params in (Hyperparams(), Hyperparams(tree_min_samples=5, tree_max_depth=3)):
        want = oracles.tree(data.matrix.tolist(), data.label_array.tolist(), sizes, 3,
                            params.tree_min_samples, params.tree_max_depth)
        assert table_as_tree(train(data, "tree", params)) == want
