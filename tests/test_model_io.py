import re

import numpy as np
import pytest

from turnout import (
    Hyperparams,
    ModelFileError,
    SchemaMismatchError,
    load_election_corpus,
    load_model,
    model_from_text,
    model_to_text,
    save_model,
    train,
)

from turnout.cli import main

from oracles import tiny_dataset

ALGOS = ("knn", "naive-bayes", "tree")


def _tamper(text: str, old: str, new: str) -> str:
    assert old in text, f"tamper target {old!r} not present"
    return text.replace(old, new, 1)


@pytest.fixture(scope="module")
def corpus():
    return load_election_corpus()


@pytest.mark.parametrize("algo", ALGOS)
def test_round_trip_preserves_predictions_bit_for_bit(corpus, algo):
    model = train(corpus, algo)
    clone = model_from_text(model_to_text(model))
    assert clone.algorithm == algo
    assert clone.schema == model.schema
    assert np.array_equal(clone.predict_proba(corpus), model.predict_proba(corpus))


@pytest.mark.parametrize("algo", ALGOS)
def test_serialisation_is_idempotent(corpus, algo):
    text = model_to_text(train(corpus, algo))
    assert model_to_text(model_from_text(text)) == text


def test_round_trip_preserves_hyperparams(corpus):
    params = Hyperparams(knn_k=3, nb_alpha=0.5, tree_min_samples=4, tree_max_depth=2)
    for algo in ALGOS:
        clone = model_from_text(model_to_text(train(corpus, algo, params)))
        assert clone.params == params


@pytest.mark.parametrize("alpha", [np.float64(0.5), 1])
def test_alpha_of_any_numeric_type_saves_loads_and_saves_the_same_bytes(corpus, alpha):
    text = model_to_text(train(corpus, "naive-bayes", Hyperparams(nb_alpha=alpha)))
    assert f" alpha={float(alpha)!r} " in text
    assert model_to_text(model_from_text(text)) == text


def test_save_and_load_files(tmp_path, corpus):
    model = train(corpus, "tree")
    path = tmp_path / "tree.model"
    save_model(model, path)
    clone = load_model(path)
    assert np.array_equal(clone.predict_proba(corpus), model.predict_proba(corpus))


def test_loaded_model_rejects_foreign_schema(corpus):
    model = model_from_text(model_to_text(train(corpus, "knn")))
    other = tiny_dataset([(0,)], [0], [2], 2)
    with pytest.raises(SchemaMismatchError):
        model.predict_proba(other)


# ------------------------------------------------------- tampered files


def test_rejects_unknown_format_version(corpus):
    text = _tamper(model_to_text(train(corpus, "knn")), "turnout-model v1", "turnout-model v2")
    with pytest.raises(ModelFileError, match="unsupported model format"):
        model_from_text(text)


def test_rejects_unknown_algorithm(corpus):
    text = _tamper(model_to_text(train(corpus, "knn")), "algorithm: knn", "algorithm: forest")
    with pytest.raises(ModelFileError, match="unknown algorithm"):
        model_from_text(text)


def test_rejects_truncated_file(corpus):
    text = model_to_text(train(corpus, "naive-bayes"))
    lines = text.splitlines()
    for cut in (1, 3, len(lines) // 2, len(lines) - 1):
        with pytest.raises(ModelFileError):
            model_from_text("\n".join(lines[:cut]) + "\n")


def test_rejects_fingerprint_mismatch(corpus):
    text = model_to_text(train(corpus, "tree"))
    match = re.search(r"fingerprint: (\w{8})", text)
    assert match is not None
    flipped = "".join("0" if ch != "0" else "1" for ch in match.group(1))
    with pytest.raises(ModelFileError, match="fingerprint does not match"):
        model_from_text(_tamper(text, match.group(1), flipped))


def test_rejects_malformed_params(corpus):
    text = _tamper(model_to_text(train(corpus, "knn")), "k=5", "k=five")
    with pytest.raises(ModelFileError, match="bad params line"):
        model_from_text(text)


@pytest.mark.parametrize("params, token", [
    ("k=5 alpha=1.0 min-samples=2 max-depth=none max-depth=7", "max-depth=7"),
    ("k=5 alpha=1.0 min-samples=2 max-depth=none bogus=1", "bogus=1"),
    ("k=5 k=5 alpha=1.0 min-samples=2 max-depth=none", "k=5"),
])
def test_rejects_unknown_or_repeated_params_keys(corpus, tmp_path, capsys, params, token):
    text = _tamper(model_to_text(train(corpus, "knn")),
                   "params: k=5 alpha=1.0 min-samples=2 max-depth=none", f"params: {params}")
    message = f"unknown or repeated params key in {token!r}"
    with pytest.raises(ModelFileError, match=re.escape(message)):
        model_from_text(text)
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["predict", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_rejects_non_integer_payload(corpus):
    text = model_to_text(train(corpus, "knn"))
    first_row = next(line for line in text.splitlines() if line.startswith("row: "))
    with pytest.raises(ModelFileError, match="non-integer"):
        model_from_text(_tamper(text, first_row, "row: x y z"))


def test_rejects_out_of_domain_knn_row(corpus):
    text = model_to_text(train(corpus, "knn"))
    first_row = next(line for line in text.splitlines() if line.startswith("row: "))
    broken = "row: 99" + first_row[len("row: 0") :]
    assert first_row.startswith("row: ")
    with pytest.raises(ModelFileError, match="out of"):
        model_from_text(_tamper(text, first_row, broken))


def _knn_payload(text):
    """The model text cut at its payload: (lines before, payload lines)."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("payload-lines: "))
    return lines[:at], lines[at + 1 : -1]


def _with_knn_payload(head, payload):
    return "\n".join([*head, f"payload-lines: {len(payload)}", *payload, "end"]) + "\n"


def _load_error(text):
    with pytest.raises(ModelFileError) as caught:
        model_from_text(text)
    return str(caught.value)


def test_knn_payload_reports_the_earlier_of_two_faulty_lines(corpus):
    head, payload = _knn_payload(model_to_text(train(corpus, "knn")))
    faults = [
        lambda line: "row: x" + line[len("row: 0") :],
        lambda line: line + " 0",
        lambda line: "row: 99" + line[len("row: 0") :],
        lambda line: line.rsplit(" ", 1)[0] + " 7",
        lambda line: line.replace("row: ", "row:", 1),
    ]
    for early in faults:
        alone = list(payload)
        alone[3] = early(payload[3])
        want = _load_error(_with_knn_payload(head, alone))
        for later in faults:
            both = list(alone)
            both[7] = later(payload[7])
            assert _load_error(_with_knn_payload(head, both)) == want


def test_knn_payload_reads_what_python_int_reads(corpus):
    text = model_to_text(train(corpus, "knn"))
    head, payload = _knn_payload(text)
    variants = [
        "row: +" + payload[0][len("row: ") :],
        "row: " + " ".join(f"0_{v}" for v in payload[1][len("row: ") :].split()),
        "row: " + " ".join(chr(0x660 + int(v)) for v in payload[2][len("row: ") :].split()),
        payload[3].replace(" ", "  ").replace("row:  ", "row: ", 1) + " ",
    ]
    tampered = _with_knn_payload(head, variants + payload[len(variants) :])
    assert model_to_text(model_from_text(tampered)) == text


def test_rejects_count_table_that_contradicts_class_counts(corpus):
    text = model_to_text(train(corpus, "naive-bayes"))
    row = next(line for line in text.splitlines() if line.startswith("table 0 0: "))
    counts = [int(t) for t in row[len("table 0 0: ") :].split()]
    counts[0] += 1
    broken = "table 0 0: " + " ".join(str(c) for c in counts)
    with pytest.raises(ModelFileError, match="does not sum"):
        model_from_text(_tamper(text, row, broken))


def test_rejects_negative_or_empty_naive_bayes_counts(corpus):
    text = model_to_text(train(corpus, "naive-bayes"))
    # still sums to the class counts, but one cell is negative
    text = _tamper(_tamper(text, "table 0 0: 6 0 3", "table 0 0: -1 0 3"),
                   "table 0 1: 41 3 1", "table 0 1: 48 3 1")
    with pytest.raises(ModelFileError, match="non-negative"):
        model_from_text(text)
    tiny = model_to_text(train(tiny_dataset([(0,)], [0], [2], 2), "naive-bayes"))
    empty = _tamper(_tamper(tiny, "class-counts: 1 0", "class-counts: 0 0"),
                    "table 0 0: 1 0", "table 0 0: 0 0")
    with pytest.raises(ModelFileError, match="positive total"):
        model_from_text(empty)


def test_rejects_cyclic_tree(corpus):
    text = model_to_text(train(corpus, "tree"))
    root = next(line for line in text.splitlines() if line.startswith("node 0: split "))
    broken = re.sub(r"children \d+", "children 0", root, count=1)
    with pytest.raises(ModelFileError, match="missing or cyclic"):
        model_from_text(_tamper(text, root, broken))


def test_rejects_dangling_child_index(corpus):
    text = model_to_text(train(corpus, "tree"))
    root = next(line for line in text.splitlines() if line.startswith("node 0: split "))
    for child in ("99999", "-1"):
        broken = re.sub(r"children \d+", f"children {child}", root, count=1)
        with pytest.raises(ModelFileError, match=f"tree node {child} is missing or cyclic"):
            model_from_text(_tamper(text, root, broken))


def test_rejects_cycle_below_the_root(corpus):
    text = model_to_text(train(corpus, "tree"))
    inner = [line for line in text.splitlines() if " split " in line][1]
    broken = re.sub(r"children \d+", "children 0", inner, count=1)
    with pytest.raises(ModelFileError, match="tree node 0 is missing or cyclic"):
        model_from_text(_tamper(text, inner, broken))


def test_tree_file_with_a_shared_child_predicts_like_the_tree():
    data = tiny_dataset([(0, 0), (1, 1), (2, 0)], [0, 1, 1], [3, 2], 2)
    text = model_to_text(train(data, "tree"))
    tree = "node 0: split 0 children 1 2 3\n"
    assert tree in text and "node 3: leaf 1 counts 0 1\n" in text
    # the root's last branch reuses node 2, which equals node 3
    shared = _tamper(_tamper(_tamper(text, tree, "node 0: split 0 children 1 2 2\n"),
                             "node 3: leaf 1 counts 0 1\n", ""),
                     "payload-lines: 4", "payload-lines: 3")
    queries = np.array([(v, w) for v in range(3) for w in range(2)])
    got = model_from_text(shared)
    want = model_from_text(text)
    assert np.array_equal(got.predict_proba_batch(queries),
                          want.predict_proba_batch(queries))
    assert model_to_text(got) == shared


def test_rejects_malformed_node_that_no_path_reaches():
    data = tiny_dataset([(0,), (1,)], [0, 1], [2], 2)
    text = model_to_text(train(data, "tree"))
    end = text.index("end\n")
    extra = text[:end] + "node 3: leaf 0 counts 1\nend\n"
    extra = _tamper(extra, "payload-lines: 3", "payload-lines: 4")
    with pytest.raises(ModelFileError, match="leaf node 3 is malformed"):
        model_from_text(extra)


def test_rejects_empty_leaf_distribution():
    data = tiny_dataset([(0,), (1,)], [0, 1], [2], 2)
    text = model_to_text(train(data, "tree"))
    leaf = next(line for line in text.splitlines() if " leaf " in line)
    broken = re.sub(r"counts [\d ]+$", "counts 0 0", leaf)
    with pytest.raises(ModelFileError, match="invalid class distribution"):
        model_from_text(_tamper(text, leaf, broken))


def test_rejects_leaf_label_that_is_not_the_argmax_of_its_counts(capsys, tmp_path):
    # a zero-gain stump: one leaf whose (2, 2) tie belongs to the earlier class
    data = tiny_dataset([(0,), (0,), (1,), (1,)], [0, 1, 0, 1], [2], 2)
    text = model_to_text(train(data, "tree"))
    assert "node 0: leaf 0 counts 2 2" in text
    for broken in ("node 0: leaf 1 counts 2 2", "node 0: leaf 0 counts 1 3"):
        with pytest.raises(ModelFileError, match="not the argmax"):
            model_from_text(_tamper(text, "node 0: leaf 0 counts 2 2", broken))
    path = tmp_path / "bad.model"
    path.write_text(_tamper(text, "node 0: leaf 0", "node 0: leaf 1"))
    assert main(["predict", str(path)]) == 2
    assert "not the argmax" in capsys.readouterr().err


def test_rejects_payload_line_count_mismatch(corpus):
    text = model_to_text(train(corpus, "knn"))
    match = re.search(r"payload-lines: (\d+)", text)
    assert match is not None
    inflated = f"payload-lines: {int(match.group(1)) + 5}"
    with pytest.raises(ModelFileError):
        model_from_text(_tamper(text, match.group(0), inflated))


def test_rejects_garbage_schema(corpus):
    text = model_to_text(train(corpus, "knn"))
    line = next(l for l in text.splitlines() if l.startswith("attribute "))
    with pytest.raises(ModelFileError, match="embedded schema is invalid"):
        model_from_text(_tamper(text, line, "attribute broken"))
