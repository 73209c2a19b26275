import re

import numpy as np
import pytest

from turnout import (
    Hyperparams,
    InputError,
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


def test_load_model_reads_through_the_input_file_reader(tmp_path, corpus):
    text = model_to_text(train(corpus, "tree"))
    path = tmp_path / "bom.model"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert model_to_text(load_model(path)) == text
    path.write_bytes(text.encode("utf-8") + b"\xe9")
    with pytest.raises(InputError, match=f"^model file {re.escape(repr(str(path)))} is not UTF-8: "
                                         f"byte 0xe9 at offset {len(text)} "):
        load_model(path)
    with pytest.raises(InputError, match="^cannot read model file "):
        load_model(tmp_path / "missing.model")


def test_model_text_after_a_byte_order_mark_reads_as_without_it(corpus):
    # parse_schema and parse_csv drop the mark too; this was 'unsupported model format'
    text = model_to_text(train(corpus, "tree"))
    assert model_to_text(model_from_text("\ufeff" + text)) == text


def test_rejects_a_line_after_the_end_marker(corpus, tmp_path, capsys):
    # trailing blank lines still load; this file loaded as if the line were not there
    text = model_to_text(train(corpus, "tree"))
    assert model_to_text(model_from_text(text + "\n \n")) == text
    path = tmp_path / "extra.model"
    path.write_text(text + "\ngarbage\n")
    assert main(["predict", str(path)]) == 2
    assert capsys.readouterr().err == "data error: unexpected line after 'end': 'garbage'\n"


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


def test_integer_params_of_numpy_type_are_stored_and_saved_as_int(corpus):
    params = Hyperparams(knn_k=np.int64(3), tree_min_samples=np.int32(4),
                         tree_max_depth=np.int64(2))
    assert [type(v) for v in params] == [int, float, int, int]
    text = model_to_text(train(corpus, "knn", params))
    assert "\nparams: k=3 alpha=1.0 min-samples=4 max-depth=2\n" in text
    assert model_from_text(text).params == params


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


@pytest.mark.parametrize("change", ["delete", "append"])
def test_naive_bayes_payload_with_a_line_missing_or_extra_names_the_count(
        corpus, tmp_path, capsys, change):
    head, payload = _knn_payload(model_to_text(train(corpus, "naive-bayes")))
    want = len(payload)
    payload = payload[:5] + payload[6:] if change == "delete" else payload + [payload[-1]]
    path = tmp_path / "bad.model"
    path.write_text(_with_knn_payload(head, payload))
    assert main(["predict", str(path)]) == 2
    assert f"naive-bayes payload has {len(payload)} lines, expected {want}" in capsys.readouterr().err


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
    assert root.endswith(" children 1 2 3")
    broken = re.sub(r"children \d+", "children 0", root, count=1)
    with pytest.raises(ModelFileError, match="^split node 0 has children 0 2 3, expected 1 2 3$"):
        model_from_text(_tamper(text, root, broken))


def test_rejects_dangling_child_index(corpus):
    text = model_to_text(train(corpus, "tree"))
    root = next(line for line in text.splitlines() if line.startswith("node 0: split "))
    for child in ("99999", "-1"):
        broken = re.sub(r"children \d+", f"children {child}", root, count=1)
        with pytest.raises(ModelFileError,
                           match=f"^split node 0 has children {child} 2 3, expected 1 2 3$"):
            model_from_text(_tamper(text, root, broken))


def test_rejects_cycle_below_the_root(corpus):
    text = model_to_text(train(corpus, "tree"))
    inner = [line for line in text.splitlines() if " split " in line][1]
    node, first = re.match(r"node (\d+): split \d+ children (\d+)", inner).groups()
    broken = re.sub(r"children \d+", "children 0", inner, count=1)
    with pytest.raises(ModelFileError,
                       match=f"^split node {node} has children 0 .*, expected {first} "):
        model_from_text(_tamper(text, inner, broken))


def test_rejects_tree_file_whose_branches_share_a_node():
    data = tiny_dataset([(0, 0), (1, 1), (2, 0)], [0, 1, 1], [3, 2], 2)
    text = model_to_text(train(data, "tree"))
    tree = "node 0: split 0 children 1 2 3\n"
    assert tree in text and "node 3: leaf 1 counts 0 1\n" in text
    # the root's last branch reuses node 2, which equals node 3: the
    # breadth-first numbering gives that branch node 3
    shared = _tamper(_tamper(_tamper(text, tree, "node 0: split 0 children 1 2 2\n"),
                             "node 3: leaf 1 counts 0 1\n", ""),
                     "payload-lines: 4", "payload-lines: 3")
    with pytest.raises(ModelFileError, match="^split node 0 has children 1 2 2, expected 1 2 3$"):
        model_from_text(shared)


def test_rejects_tree_file_that_is_not_breadth_first():
    data = tiny_dataset([(0,), (1,)], [0, 1], [2], 2)
    text = model_to_text(train(data, "tree"))
    root, left = "node 0: split 0 children 1 2\n", "node 1: leaf 0 counts 1 0\n"
    extra = _tamper(_tamper(text, "end\n", "node 3: leaf 0 counts 1 0\nend\n"),
                    "payload-lines: 3", "payload-lines: 4")
    missing = _tamper(_tamper(text, "node 2: leaf 1 counts 0 1\n", ""),
                      "payload-lines: 3", "payload-lines: 2")
    # the root is a leaf, and node 1 lists itself as its first child
    late = _tamper(text, root + left, left.replace("1:", "0:") + root.replace("0:", "1:"))
    for broken, message in ((extra, "tree has 4 nodes, expected the root and 2 children"),
                            (missing, "tree has 2 nodes, expected the root and 2 children"),
                            (late, "split node 1 comes after its children")):
        with pytest.raises(ModelFileError, match=f"^{message}$"):
            model_from_text(broken)


def test_rejects_malformed_node_that_no_path_reaches():
    data = tiny_dataset([(0,), (1,)], [0, 1], [2], 2)
    text = model_to_text(train(data, "tree"))
    end = text.index("end\n")
    extra = text[:end] + "node 3: leaf 0 counts 1\nend\n"
    extra = _tamper(extra, "payload-lines: 3", "payload-lines: 4")
    with pytest.raises(ModelFileError, match="leaf node 3 is malformed"):
        model_from_text(extra)


def test_rejects_split_that_no_path_reaches_with_a_child_that_is_no_node():
    data = tiny_dataset([(0,), (1,)], [0, 1], [2], 2)
    text = model_to_text(train(data, "tree"))
    extra = _tamper(text, "end\n", "node 3: split 0 children 1 99\nend\n")
    extra = _tamper(extra, "payload-lines: 3", "payload-lines: 4")
    with pytest.raises(ModelFileError, match="^split node 3 has children 1 99, expected 3 4$"):
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


@pytest.mark.parametrize("old, new, message", [
    # a node line that has neither " children " nor " counts "
    ("node 0: split 7 children 1 2 3", "node 0: split 7 1 2 3",
     "malformed tree node line 'node 0: split 7 1 2 3'"),
    ("node 5: leaf 1 counts 2 4 3", "node 5: leaf 1 2 4 3",
     "malformed tree node line 'node 5: leaf 1 2 4 3'"),
    # a misspelled keyword is found before the words are read as integers
    ("node 0: split 7 children 1 2 3", "node 0: split 7 kids 1 2 3",
     "malformed tree node line 'node 0: split 7 kids 1 2 3'"),
    ("node 5: leaf 1 counts 2 4 3", "node 5: leaf 1 tally 2 4 3",
     "malformed tree node line 'node 5: leaf 1 tally 2 4 3'"),
    # the corpus has nine features, 0..8
    ("node 0: split 7 children 1 2 3", "node 0: split 9 children 1 2 3",
     "split node 0 names an unknown attribute"),
    ("node 0: split 7 children 1 2 3", "node 0: split -1 children 1 2 3",
     "split node 0 names an unknown attribute"),
    ("node 0: split 7 children 1 2 3", "node 0: split 7 0 children 1 2 3",
     "split node 0 names an unknown attribute"),
    # too few or too many children: one check of the whole list
    ("node 0: split 7 children 1 2 3", "node 0: split 7 children 1 2",
     "split node 0 has children 1 2, expected 1 2 3"),
    ("node 0: split 7 children 1 2 3", "node 0: split 7 children 1 2 3 4",
     "split node 0 has children 1 2 3 4, expected 1 2 3"),
    ("node 0: split 7 children 1 2 3", "node 0: split 7 children 2 3",
     "split node 0 has children 2 3, expected 1 2 3"),
])
def test_rejects_tree_node_line_naming_its_fault(corpus, tmp_path, capsys, old, new, message):
    text = _tamper(model_to_text(train(corpus, "tree")), old + "\n", new + "\n")
    with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
        model_from_text(text)
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["predict", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("old, new, message", [
    ("schema-lines: 10", "schema-lines: ten", "bad schema-lines count: 'ten'"),
    ("schema-lines: 10", "schema-lines: 1.5", "bad schema-lines count: '1.5'"),
    ("schema-lines: 10", "schema-lines: -1", "bad schema-lines count: '-1'"),
    ("payload-lines: 60", "payload-lines: 6O", "bad payload-lines count: '6O'"),
    ("payload-lines: 60", "payload-lines: -60", "bad payload-lines count: '-60'"),
    ("max-depth=none", "max-depth none", "malformed params token 'max-depth'"),
    ("algorithm: tree", "algo: tree", "expected 'algorithm' line, got 'algo: tree'"),
    ("\nparams: ", "\nparameters: ",
     "expected 'params' line, got 'parameters: k=5 alpha=1.0 min-samples=2 max-depth=none'"),
])
def test_rejects_header_line_naming_its_fault(corpus, tmp_path, capsys, old, new, message):
    text = _tamper(model_to_text(train(corpus, "tree")), old, new)
    with pytest.raises(ModelFileError, match=f"^{re.escape(message)}$"):
        model_from_text(text)
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert main(["predict", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
