import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import turnout.cli
from turnout import (
    Attribute,
    AttributeSchema,
    DataError,
    Dataset,
    REFERENCE_TREE_ROOT,
    Hyperparams,
    dataset_to_csv,
    election_csv_text,
    election_schema_text,
    load_election_corpus,
    load_election_schema,
    predict_labels,
    train_tree,
)
from turnout.cli import _detect_labeled, main

from oracles import table_as_tree

DESCRIBE = (
    "100 records; classes: Partnership=84, "
    "Possible participation=10, Without participation=6"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ validate


def test_validate_embedded_corpus(capsys):
    code, out, err = run(capsys, "validate")
    assert code == 0
    assert out.splitlines()[0] == DESCRIBE
    assert err == ""


def test_validate_prints_crosstab(capsys):
    code, out, _ = run(capsys, "validate", "--attribute", "Age")
    assert code == 0
    assert "crosstab: Age" in out
    assert "Old\t6\t0\t3\t9" in out
    assert "Aged\t41\t3\t1\t45" in out
    assert "Young\t37\t7\t2\t46" in out
    assert "total\t84\t10\t6\t100" in out


def test_validate_all_crosstabs(capsys):
    code, out, _ = run(capsys, "validate", "--attribute", "all")
    assert code == 0
    assert out.count("crosstab: ") == 9


def test_validate_unknown_attribute(capsys):
    code, _, err = run(capsys, "validate", "--attribute", "Shoe size")
    assert code == 1
    assert "Shoe size" in err


def test_validate_file_needs_schema(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(election_csv_text())
    code, _, err = run(capsys, "validate", "--data", str(data))
    assert code == 1
    assert "--schema" in err


def test_validate_exported_files_round_trip(capsys, tmp_path):
    assert run(capsys, "export-corpus", "--out", str(tmp_path))[0] == 0
    code, out, _ = run(
        capsys, "validate",
        "--data", str(tmp_path / "election.csv"),
        "--schema", str(tmp_path / "election.schema"),
    )
    assert code == 0
    assert out.splitlines()[0] == DESCRIBE


def test_validate_corrupt_cell_names_the_line(capsys, tmp_path):
    schema = tmp_path / "s.schema"
    data = tmp_path / "d.csv"
    schema.write_text(election_schema_text())
    lines = election_csv_text().splitlines()
    lines[3] = lines[3].replace(lines[3].split(",")[0], "Ancient", 1)
    data.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "validate", "--data", str(data), "--schema", str(schema))
    assert code == 2
    assert "line 4" in err
    assert "Ancient" in err


def test_missing_data_file(capsys):
    code, _, err = run(capsys, "validate", "--data", "no/such/file.csv", "--schema", "x")
    assert code == 2
    assert "cannot read" in err


def test_unknown_embedded_name(capsys):
    code, _, err = run(capsys, "validate", "--data", "embedded:census")
    assert code == 2
    assert "embedded" in err


# ------------------------------------------------------------ evaluate


def test_evaluate_requires_a_seed(capsys):
    code, _, err = run(capsys, "evaluate", "--algo", "knn")
    assert code == 1
    assert "--seed is required" in err


def test_evaluate_test_on_train_rejects_seed(capsys):
    code, _, err = run(capsys, "evaluate", "--algo", "knn", "--test-on-train", "--seed", "1")
    assert code == 1
    assert "does not take --seed" in err


def test_evaluate_rejects_bad_jobs(capsys):
    code, _, err = run(capsys, "evaluate", "--algo", "knn", "--seed", "1", "--jobs", "0")
    assert code == 1
    assert "--jobs" in err


def test_evaluate_prints_tables_without_out(capsys):
    code, out, _ = run(capsys, "evaluate", "--algo", "knn", "--seed", "42")
    assert code == 0
    assert "baseline accuracy (majority class): 0.8400" in out
    assert "[knn]" in out
    assert "class\tCA\tSens\tSpec\tF1\tPrec\tRecall" in out
    assert "actual\\predicted" in out


def test_evaluate_reports_the_tree_root(capsys):
    code, out, _ = run(capsys, "evaluate", "--algo", "tree", "--test-on-train")
    assert code == 0
    assert (
        "tree root attribute: Attitude to election officials "
        "(reference: Attitude to election officials; agrees)"
    ) in out


def test_evaluate_writes_report_directory(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "evaluate", "--algo", "all", "--seed", "42", "--out", str(out_dir), "--svg"
    )
    assert code == 0
    assert f"wrote reports under {out_dir}" in out
    assert (out_dir / "summary.txt").exists()
    for algo in ("knn", "naive-bayes", "tree"):
        assert (out_dir / algo / "metrics.tsv").exists()
        assert (out_dir / algo / "confusion.tsv").exists()
        assert list((out_dir / algo).glob("roc_*.csv"))
        assert list((out_dir / algo).glob("roc_*.svg"))
    summary = (out_dir / "summary.txt").read_text()
    assert "protocol: stratified 10-fold cross-validation (seed 42)" in summary
    assert "dataset: embedded:election (100 records)" in summary


def test_evaluate_from_matrix_recomputes_metrics(capsys, tmp_path):
    table = (
        "actual\\predicted\ta\tb\ttotal\n"
        "a\t3\t1\t4\n"
        "b\t2\t4\t6\n"
        "total\t5\t5\t10\n"
    )
    path = tmp_path / "confusion.tsv"
    path.write_text(table)
    code, out, _ = run(capsys, "evaluate", "--from-matrix", str(path))
    assert code == 0
    assert out == (
        "class\tCA\tSens\tSpec\tF1\tPrec\tRecall\n"
        "a\t0.7000\t0.7500\t0.6667\t0.6667\t0.6000\t0.7500\n"
        "b\t0.7000\t0.6667\t0.7500\t0.7273\t0.8000\t0.6667\n"
    )


def test_evaluate_from_matrix_rejects_broken_margins(capsys, tmp_path):
    path = tmp_path / "confusion.tsv"
    path.write_text(
        "actual\\predicted\ta\tb\ttotal\n"
        "a\t3\t1\t9\n"
        "b\t2\t4\t6\n"
        "total\t5\t5\t10\n"
    )
    code, _, err = run(capsys, "evaluate", "--from-matrix", str(path))
    assert code == 2
    assert "margin" in err


def test_evaluate_hyperparams_are_validated(capsys):
    code, _, err = run(capsys, "evaluate", "--algo", "knn", "--seed", "1", "--k", "0")
    assert code == 1
    assert "knn_k" in err


def test_evaluate_rejects_non_finite_alpha(capsys):
    for alpha in ("inf", "nan"):
        code, _, err = run(capsys, "evaluate", "--algo", "naive-bayes", "--seed", "1",
                           "--alpha", alpha)
        assert code == 1
        assert "alpha" in err


NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _corpus_without_its_smallest_class(tmp_path):
    """The survey minus its 6 "Without participation" records, as data and
    schema files; the schema still declares that class."""
    lines = election_csv_text().splitlines()
    kept = [lines[0]] + [line for line in lines[1:]
                         if not line.endswith(",Without participation")]
    assert len(kept) == 1 + 94
    data = tmp_path / "d.csv"
    schema = tmp_path / "s.schema"
    data.write_text("\n".join(kept) + "\n")
    schema.write_text(election_schema_text())
    return data, schema


def test_alpha_zero_with_an_absent_class_emits_finite_files(capsys, tmp_path):
    data, schema = _corpus_without_its_smallest_class(tmp_path)
    files = ("--data", str(data), "--schema", str(schema), "--alpha", "0")
    reports = tmp_path / "reports"
    model = tmp_path / "nb.model"
    predictions = tmp_path / "predictions.tsv"
    assert run(capsys, "evaluate", "--algo", "naive-bayes", "--seed", "42", *files,
               "--out", str(reports))[0] == 0
    assert run(capsys, "train", "--algo", "naive-bayes", *files, "--out", str(model))[0] == 0
    assert run(capsys, "predict", str(model), "--data", str(data),
               "--out", str(predictions))[0] == 0
    emitted = [p for p in tmp_path.rglob("*") if p.is_file() and p not in (data, schema)]
    assert len(emitted) > 10
    for path in emitted:
        assert not NON_FINITE.search(path.read_text()), path


def test_svg_of_a_one_point_curve_is_a_marker(capsys, tmp_path):
    # the absent class's calibration curve has a single point
    data, schema = _corpus_without_its_smallest_class(tmp_path)
    reports = tmp_path / "reports"
    code, _, err = run(capsys, "evaluate", "--algo", "all", "--seed", "42", "--svg",
                       "--data", str(data), "--schema", str(schema), "--out", str(reports))
    assert code == 0, err
    svg = (reports / "tree" / "calibration_Without_participation.svg").read_text()
    assert "<circle " in svg and "<polyline" not in svg
    emitted = [p for p in reports.rglob("*") if p.is_file()]
    assert len(emitted) > 30
    for path in emitted:
        assert not NON_FINITE.search(path.read_text()), path


@pytest.mark.parametrize("cap", [None, 0, 1, 3])
def test_tree_root_note_matches_the_full_tree_at_any_depth_cap(capsys, cap):
    data = load_election_corpus()
    root = table_as_tree(train_tree(data, Hyperparams(tree_max_depth=cap)))
    name = data.schema.features[root[1]].name if root[0] == "split" else "(single leaf)"
    verdict = "agrees" if name == REFERENCE_TREE_ROOT else "differs"
    depth = () if cap is None else ("--max-depth", str(cap))
    code, out, _ = run(capsys, "evaluate", "--algo", "tree", "--test-on-train", *depth)
    assert code == 0
    assert f"tree root attribute: {name} (reference: {REFERENCE_TREE_ROOT}; {verdict})" in out
    assert (verdict == "agrees") == (cap != 0)


def _synthetic_csv(n, seed):
    schema = load_election_schema()
    rng = np.random.default_rng(seed)
    rows = tuple(tuple(int(rng.integers(f.size)) for f in schema.features) for _ in range(n))
    labels = tuple(int(c) for c in rng.choice(schema.n_classes, size=n, p=[0.7, 0.2, 0.1]))
    return dataset_to_csv(Dataset(schema=schema, rows=rows, labels=labels))


def test_jobs_never_change_report_bytes_on_multi_block_data(capsys, tmp_path):
    # 1,500 records: each fold trains KNN on 1,350, so a block holds 24 of
    # the 150 held-out queries and every fold's batch spans several blocks
    data = tmp_path / "d.csv"
    schema = tmp_path / "s.schema"
    data.write_text(_synthetic_csv(1500, seed=5))
    schema.write_text(election_schema_text())
    outputs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"jobs{jobs}"
        code, _, _ = run(capsys, "evaluate", "--algo", "all", "--seed", "3", "--jobs", jobs,
                         "--data", str(data), "--schema", str(schema), "--out", str(out))
        assert code == 0
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(outputs[0]) > 20
    assert outputs[0] == outputs[1]


def test_byte_order_mark_is_ignored(capsys, tmp_path):
    assert run(capsys, "export-corpus", "--out", str(tmp_path))[0] == 0
    for name in ("election.csv", "election.schema"):
        path = tmp_path / name
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    files = ("--data", str(tmp_path / "election.csv"),
             "--schema", str(tmp_path / "election.schema"))
    code, out, err = run(capsys, "validate", *files)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == DESCRIBE
    # an unlabeled file with a BOM is still recognised as unlabeled
    model = tmp_path / "knn.model"
    assert run(capsys, "train", "--algo", "knn", *files, "--out", str(model))[0] == 0
    lines = election_csv_text().splitlines()
    query = tmp_path / "query.csv"
    query.write_text("\ufeff" + "\n".join(line.rsplit(",", 1)[0] for line in lines[:3]) + "\n",
                     encoding="utf-8")
    code, out, _ = run(capsys, "predict", str(model), "--data", str(query))
    assert code == 0
    assert len(out.splitlines()) == 3


# -------------------------------------------------------- train/predict


def test_train_then_predict_round_trip(capsys, tmp_path):
    model_path = tmp_path / "nb.model"
    code, out, _ = run(capsys, "train", "--algo", "naive-bayes", "--out", str(model_path))
    assert code == 0
    assert model_path.exists()
    assert "wrote naive-bayes model" in out

    code, out, _ = run(capsys, "predict", str(model_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("index\tprediction\tPartnership\t")
    assert len(lines) == 101
    first = lines[1].split("\t")
    assert first[0] == "0"
    assert first[1] in ("Partnership", "Possible participation", "Without participation")
    assert len(first) == 5


def test_predict_unlabeled_file_uses_model_schema(capsys, tmp_path):
    model_path = tmp_path / "knn.model"
    assert run(capsys, "train", "--algo", "knn", "--out", str(model_path))[0] == 0

    rows = election_csv_text().splitlines()
    header = ",".join(rows[0].split(",")[:-1])  # drop the target column
    record = ",".join(rows[1].split(",")[:-1])
    unlabeled = tmp_path / "query.csv"
    unlabeled.write_text(header + "\n" + record + "\n")

    out_path = tmp_path / "pred.tsv"
    code, out, _ = run(
        capsys, "predict", str(model_path), "--data", str(unlabeled), "--out", str(out_path)
    )
    assert code == 0
    assert f"wrote predictions to {out_path}" in out
    written = out_path.read_text().splitlines()
    assert len(written) == 2
    assert written[1].split("\t")[1] == "Partnership"


def test_predict_header_only_file(capsys, tmp_path):
    model_path = tmp_path / "knn.model"
    assert run(capsys, "train", "--algo", "knn", "--out", str(model_path))[0] == 0
    query = tmp_path / "empty.csv"
    query.write_text(",".join(election_csv_text().splitlines()[0].split(",")[:-1]) + "\n")
    code, out, _ = run(capsys, "predict", str(model_path), "--data", str(query))
    assert code == 0
    assert out == "index\tprediction\tPartnership\tPossible participation\tWithout participation\n"


class _FixedModel:
    """Stands in for a loaded model: a schema and fixed probabilities."""

    def __init__(self, schema, proba):
        self.schema = schema
        self.proba = proba

    def predict_proba(self, data):
        assert data.n == len(self.proba)
        return self.proba


def test_predict_lines_match_the_per_cell_format(capsys, tmp_path, monkeypatch):
    # labels holding '%' stay text: they are arguments, not format
    schema = AttributeSchema(features=(Attribute("A", ("p", "q")),),
                             target=Attribute("Vote", ("50%", "%d%%", "%s")))
    proba = np.array([[0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3],
                      [5e-7, 0.5, 0.5 - 5e-7], [1.0, 0.0, 0.0]])
    monkeypatch.setattr(turnout.cli, "load_model", lambda path: _FixedModel(schema, proba))
    query = tmp_path / "query.csv"
    query.write_text("A\np\nq\nq\np\n")
    labels = schema.class_labels
    want = ["index\tprediction\t" + "\t".join(labels)]
    for i, row in enumerate(proba):
        cells = [str(i), labels[predict_labels(proba)[i]]] + [f"{p:.6f}" for p in row.tolist()]
        want.append("\t".join(cells))
    code, out, _ = run(capsys, "predict", "unused.model", "--data", str(query))
    assert code == 0
    assert out == "\n".join(want) + "\n"
    assert out.splitlines()[3] == "2\t%d%%\t0.000000\t0.500000\t0.499999"


def _detect_labeled_per_line(text, schema):
    for line in text.removeprefix("\ufeff").splitlines():
        if line.strip():
            labeled = [*schema.feature_names, schema.target.name]
            return [" ".join(c.split()) for c in line.split(",")] == labeled
    raise DataError("data file has no header line")


@pytest.mark.parametrize("text, labeled", [
    ("\ufeffA\np\n", False),
    ("\ufeffA,Vote\np,50%\n", True),
    ("A\r\np\r\n", False),
    ("A,Vote\r\np,50%\r\n", True),
    ("\n \n\t\r\n A \np\n", False),
    ("\r\n\r\nA,Vote\r\n", True),
    ("\ufeff\n\nA\rp\r", False),
])
def test_detect_labeled_reads_the_first_non_blank_line(text, labeled):
    schema = AttributeSchema(features=(Attribute("A", ("p", "q")),),
                             target=Attribute("Vote", ("50%", "%s")))
    assert _detect_labeled(text, schema) is labeled
    assert _detect_labeled_per_line(text, schema) is labeled


@given(st.lists(st.sampled_from(["\n", "\r\n", "\r", " ", "\t", "\x0c", "\x1c", "\u2028",
                                 "\ufeff", "A", "Vote", ",", "x"]), max_size=12))
def test_detect_labeled_matches_splitting_every_line(pieces):
    schema = AttributeSchema(features=(Attribute("A", ("p", "q")),),
                             target=Attribute("Vote", ("50%", "%s")))
    text = "".join(pieces)

    def outcome(detect):
        try:
            return detect(text, schema)
        except DataError as exc:
            return str(exc)

    assert outcome(_detect_labeled) == outcome(_detect_labeled_per_line)


@pytest.mark.parametrize("argv", [
    ("evaluate", "--algo", "all", "--seed", "1"),
    ("evaluate", "--algo", "all", "--test-on-train"),
    ("train", "--algo", "knn", "--out", "knn.model"),
])
def test_header_only_labeled_file_is_a_data_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    schema = tmp_path / "s.schema"
    data = tmp_path / "empty.csv"
    schema.write_text(election_schema_text())
    data.write_text(election_csv_text().splitlines()[0] + "\n")
    code, out, err = run(capsys, *argv, "--data", str(data), "--schema", str(schema))
    assert code == 2
    assert out == ""
    assert err == f"data error: dataset {str(data)!r} has no records\n"
    assert not (tmp_path / "knn.model").exists()


def test_predict_rejects_out_of_domain_value(capsys, tmp_path):
    model_path = tmp_path / "knn.model"
    assert run(capsys, "train", "--algo", "knn", "--out", str(model_path))[0] == 0
    rows = election_csv_text().splitlines()
    header = ",".join(rows[0].split(",")[:-1])
    cells = rows[1].split(",")[:-1]
    cells[0] = "Immortal"
    record = ",".join(cells)
    query = tmp_path / "query.csv"
    query.write_text(header + "\n" + record + "\n")
    code, _, err = run(capsys, "predict", str(model_path), "--data", str(query))
    assert code == 2
    assert "Immortal" in err


@pytest.mark.parametrize("command", ["predict", "validate"])
def test_header_of_neither_form_is_read_as_unlabeled(capsys, tmp_path, command):
    # only the feature list plus the target marks a labeled file, so a short
    # header is checked against the feature list that prediction needs
    query = tmp_path / "query.csv"
    query.write_text("Age,Sex\n")
    schema = tmp_path / "s.schema"
    schema.write_text(election_schema_text())
    model = tmp_path / "nb.model"
    assert run(capsys, "train", "--algo", "naive-bayes", "--out", str(model))[0] == 0
    first = (str(model),) if command == "predict" else ("--schema", str(schema))
    code, _, err = run(capsys, command, *first, "--data", str(query))
    assert code == 2
    features = list(load_election_schema().feature_names)
    assert f"header mismatch: expected {features}, got ['Age', 'Sex']" in err


def test_predict_rejects_garbage_model_file(capsys, tmp_path):
    bogus = tmp_path / "bogus.model"
    bogus.write_text("not a model\n")
    code, _, err = run(capsys, "predict", str(bogus))
    assert code == 2
    assert "unsupported model format" in err


# -------------------------------------------------------------- common


def test_export_corpus_writes_exact_embedded_bytes(capsys, tmp_path):
    code, out, _ = run(capsys, "export-corpus", "--out", str(tmp_path / "dump"))
    assert code == 0
    assert (tmp_path / "dump" / "election.schema").read_text() == election_schema_text()
    assert (tmp_path / "dump" / "election.csv").read_text() == election_csv_text()


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err
