import contextlib
import gc
import io
import re
import shutil
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import turnout.cli
from turnout import (
    ALGORITHMS,
    Attribute,
    AttributeSchema,
    DataError,
    Dataset,
    REFERENCE_TREE_ROOT,
    Hyperparams,
    KnnModel,
    canonical_label,
    dataset_to_csv,
    election_csv_text,
    election_schema_text,
    load_election_corpus,
    load_election_schema,
    load_model,
    model_to_text,
    parse_csv,
    predict_labels,
    save_model,
    train,
)
from turnout.cli import main
from turnout.data import _BLOCK_CHARS, read_blocks

from oracles import table_as_tree

DESCRIBE = (
    "100 records; classes: Partnership=84, "
    "Possible participation=10, Without participation=6"
)

# the whole stdout of `validate --attribute all` on the embedded survey
VALIDATE_ALL = """\
100 records; classes: Partnership=84, Possible participation=10, Without participation=6

crosstab: Age
\tPartnership\tPossible participation\tWithout participation\ttotal
Old\t6\t0\t3\t9
Aged\t41\t3\t1\t45
Young\t37\t7\t2\t46
total\t84\t10\t6\t100

crosstab: Degree
\tPartnership\tPossible participation\tWithout participation\ttotal
Under license\t18\t2\t1\t21
Bachelor\t41\t4\t4\t49
PhD\t8\t0\t0\t8
MA\t17\t4\t1\t22
total\t84\t10\t6\t100

crosstab: Job
\tPartnership\tPossible participation\tWithout participation\ttotal
free Job\t40\t3\t2\t45
Employee\t30\t4\t3\t37
Collegiate\t14\t3\t1\t18
total\t84\t10\t6\t100

crosstab: Political Orientation
\tPartnership\tPossible participation\tWithout participation\ttotal
Fundamentalists\t48\t3\t1\t52
Moderate\t10\t0\t0\t10
Reformist\t26\t7\t5\t38
total\t84\t10\t6\t100

crosstab: important task
\tPartnership\tPossible participation\tWithout participation\ttotal
Fuel Rationing\t15\t5\t1\t21
Marriage Loans\t11\t0\t0\t11
Mortgage\t32\t2\t1\t35
Targeted subsidies\t26\t3\t4\t33
total\t84\t10\t6\t100

crosstab: Attitude to elections
\tPartnership\tPossible participation\tWithout participation\ttotal
Religious duty\t57\t6\t1\t64
Reform\t20\t1\t4\t25
Partnership\t7\t3\t1\t11
total\t84\t10\t6\t100

crosstab: Attitude to politics
\tPartnership\tPossible participation\tWithout participation\ttotal
Negotiation\t6\t3\t2\t11
Resistance\t73\t7\t3\t83
Compromise\t5\t0\t1\t6
total\t84\t10\t6\t100

crosstab: Attitude to election officials
\tPartnership\tPossible participation\tWithout participation\ttotal
Unreliability\t2\t4\t3\t9
Confidence\t61\t4\t3\t68
Higher accuracy\t21\t2\t0\t23
total\t84\t10\t6\t100

crosstab: Attitude to candidates
\tPartnership\tPossible participation\tWithout participation\ttotal
Party candidates\t34\t5\t2\t41
Popular candidate\t43\t5\t4\t52
Political elites\t7\t0\t0\t7
total\t84\t10\t6\t100
"""


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
    # byte for byte: the header line with its empty corner cell, every row and margin
    assert run(capsys, "validate", "--attribute", "all") == (0, VALIDATE_ALL, "")


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


def test_evaluate_test_on_train_rejects_folds(capsys):
    code, out, err = run(capsys, "evaluate", "--algo", "knn", "--test-on-train", "--folds", "3")
    assert code == 1 and out == ""
    assert "usage error: --test-on-train does not take --folds" in err


def test_evaluate_folds_default_to_ten(capsys):
    code, out, _ = run(capsys, "evaluate", "--algo", "knn", "--seed", "1")
    assert code == 0
    assert "protocol: stratified 10-fold cross-validation (seed 1)" in out


def test_evaluate_rejects_a_negative_seed(capsys):
    code, _, err = run(capsys, "evaluate", "--algo", "knn", "--seed", "-1")
    assert code == 1
    assert "usage error: seed must be >= 0, got -1" in err


def test_evaluate_refuses_one_fold_before_reading_the_data(capsys):
    # was exit 2 on the missing file: the protocol is checked first
    code, _, err = run(capsys, "evaluate", "--seed", "1", "--folds", "1",
                       "--data", "no/such/file.csv", "--schema", "no/such/file.schema")
    assert (code, err) == (1, "usage error: folds must be >= 2, got 1\n")


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


def test_evaluate_refuses_colliding_curve_names_before_evaluating(capsys, tmp_path, monkeypatch):
    # both labels slug to a_b; this printed the whole summary and then exited 2
    schema = AttributeSchema((Attribute("f", ("x", "y")),), Attribute("t", ("a b", "a-b")))
    (tmp_path / "s.schema").write_text(schema.to_text())
    (tmp_path / "d.csv").write_text(dataset_to_csv(Dataset(schema, ((0,), (1,)), (0, 1))))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "evaluate", "--data", "d.csv", "--schema", "s.schema",
                         "--algo", "knn", "--test-on-train", "--out", "o")
    assert (code, out) == (2, "")
    assert err == "data error: class labels 'a b' and 'a-b' would both write 'calibration_a_b.csv'\n"
    assert not (tmp_path / "o").exists()


MATRIX_TABLE = (
    "actual\\predicted\ta\tb\ttotal\n"
    "a\t3\t1\t4\n"
    "b\t2\t4\t6\n"
    "total\t5\t5\t10\n"
)


def test_evaluate_from_matrix_recomputes_metrics(capsys, tmp_path):
    path = tmp_path / "confusion.tsv"
    path.write_text(MATRIX_TABLE)
    code, out, _ = run(capsys, "evaluate", "--from-matrix", str(path))
    assert code == 0
    assert out == (
        "class\tCA\tSens\tSpec\tF1\tPrec\tRecall\n"
        "a\t0.7000\t0.7500\t0.6667\t0.6667\t0.6000\t0.7500\n"
        "b\t0.7000\t0.6667\t0.7500\t0.7273\t0.8000\t0.6667\n"
    )


@pytest.mark.parametrize("argv, flag", [
    (("--seed", "3", "--folds", "5", "--algo", "tree", "--k", "7", "--test-on-train", "--svg"),
     "k"),
    (("--seed", "3"), "seed"),
    (("--test-on-train",), "test-on-train"),
    (("--svg",), "svg"),
    (("--jobs", "2"), "jobs"),
    (("--alpha", "nan"), "alpha"),
    (("--max-depth", "0"), "max-depth"),
    (("--data", "survey.csv", "--schema", "survey.schema"), "data"),
])
def test_evaluate_from_matrix_takes_no_other_option(capsys, tmp_path, argv, flag):
    path = tmp_path / "confusion.tsv"
    path.write_text(MATRIX_TABLE)
    assert run(capsys, "evaluate", "--from-matrix", str(path), *argv) == (
        1, "", f"usage error: --from-matrix does not take --{flag}\n")
    # --out is allowed, and so is an option given at its default
    out = tmp_path / "out"
    code, printed, _ = run(capsys, "evaluate", "--from-matrix", str(path), "--out", str(out),
                           "--algo", "all", "--jobs", "1", "--alpha", "1")
    assert code == 0
    assert (out / "metrics.tsv").read_text() == printed


@pytest.mark.parametrize("second", ["a", ""], ids=["duplicate", "empty"])
def test_evaluate_from_matrix_refuses_duplicate_or_empty_class_names_as_data(
        capsys, tmp_path, second):
    # the margins add up; only the second class's name, in header and row, is at fault
    path = tmp_path / "confusion.tsv"
    path.write_text(MATRIX_TABLE.replace("b", second))
    assert run(capsys, "evaluate", "--from-matrix", str(path)) == (
        2, "", "data error: confusion matrix class labels must be distinct and nonempty\n")


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


@pytest.mark.parametrize("rows, message", [
    ("a\t4\t-1\t3\nb\t2\t4\t6\ntotal\t6\t3\t9\n", "confusion matrix counts must be non-negative"),
    ("a\t0\t0\t0\nb\t0\t0\t0\ntotal\t0\t0\t0\n", "empty confusion matrix"),
], ids=["negative", "empty"])
def test_evaluate_from_matrix_refuses_a_negative_or_empty_table_as_data(
        capsys, tmp_path, rows, message):
    # the margins add up, so only the counts themselves are at fault
    path = tmp_path / "confusion.tsv"
    path.write_text("actual\\predicted\ta\tb\ttotal\n" + rows)
    assert run(capsys, "evaluate", "--from-matrix", str(path)) == (
        2, "", f"data error: {message}\n")


@pytest.fixture(scope="module")
def corpus_confusion_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["evaluate", "--algo", "knn", "--seed", "42", "--out", str(out)]) == 0
    return (out / "knn" / "confusion.tsv").read_text(encoding="utf-8").splitlines()


def _mutate_table(draw, lines):
    """One drawn change to a confusion table: a count moved by one, negated
    or set to 0, or a line deleted, duplicated or swapped with another."""
    lines = list(lines)
    kind = draw(st.sampled_from(["count", "count", "delete", "duplicate", "swap"]))
    if kind == "count":
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if re.search(r"\d", line)]))
        m = draw(st.sampled_from(list(re.finditer(r"-?\d+", lines[i]))))
        v = int(m.group())
        v = draw(st.sampled_from([v + 1, v - 1, -v, 0]))
        lines[i] = lines[i][: m.start()] + str(v) + lines[i][m.end() :]
    else:
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i : i + 1] = [] if kind == "delete" else [lines[i]] * 2
    return lines


def _with_margins(lines):
    """The table with each class row's total and the total row summed
    again from the class cells, so that the margin checks pass; a table
    whose cells below the header are not all integers is returned as is."""
    try:
        grid = [[int(c) for c in line.split("\t")[1:]] for line in lines[1:]]
    except ValueError:
        return lines
    if len(grid) < 2 or len({len(row) for row in grid}) != 1:
        return lines
    body = [row[:-1] + [sum(row[:-1])] for row in grid[:-1]]
    totals = [sum(column) for column in zip(*body)]
    return [lines[0]] + [
        "\t".join([line.split("\t")[0], *map(str, row)])
        for line, row in zip(lines[1:], body + [totals])]


@settings(max_examples=200, deadline=None)
@given(draws=st.data())
def test_evaluate_from_matrix_on_a_mutated_table_is_metrics_or_a_data_error(
        corpus_confusion_lines, tmp_path_factory, draws):
    lines = corpus_confusion_lines
    for _ in range(draws.draw(st.integers(1, 2))):
        lines = _mutate_table(draws.draw, lines)
    if draws.draw(st.booleans()):
        lines = _with_margins(lines)
    path = tmp_path_factory.mktemp("mutated") / "confusion.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--from-matrix", str(path)])
    # never a usage (1) or internal (3) error
    assert code in (0, 2), err.getvalue()
    if code == 0:
        assert not re.search(r"(?i)\b(nan|inf)\b", out.getvalue())
        assert not re.search(r"-\d", path.read_text(encoding="utf-8"))
    else:
        assert err.getvalue().startswith("data error: ") and not out.getvalue()


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
    root = table_as_tree(train(data, "tree", Hyperparams(tree_max_depth=cap)))
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


def test_byte_order_mark_is_dropped_in_the_one_decode(tmp_path):
    path = tmp_path / "election.csv"
    path.write_text("\ufeff" + election_csv_text(), encoding="utf-8")
    text = "".join(read_blocks(str(path), "data file"))
    assert "\ufeff" not in text and text == election_csv_text()
    # one byte per character: no copy of the text ever held U+FEFF
    assert sys.getsizeof(text) < len(text) + 100


@pytest.mark.parametrize("what, argv", [
    ("data file", ("validate", "--data", "{bad}", "--schema", "{dir}/election.schema")),
    ("schema file", ("validate", "--data", "{dir}/election.csv", "--schema", "{bad}")),
    ("matrix file", ("evaluate", "--from-matrix", "{bad}")),
])
def test_offset_of_a_bad_byte_after_a_byte_order_mark_counts_the_mark(capsys, tmp_path, what, argv):
    assert run(capsys, "export-corpus", "--out", str(tmp_path))[0] == 0
    bad = tmp_path / "bom.txt"
    bad.write_bytes(bytes.fromhex("EFBBBF6162E9"))
    code, _, err = run(capsys, *(a.format(bad=bad, dir=tmp_path) for a in argv))
    assert (code, err) == (2, f"data error: {what} {str(bad)!r} is not UTF-8: byte 0xe9 "
                              "at offset 5 (unexpected end of data)\n")


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
    (" A ,\tVote \np,50%\n", True),
])
def test_detect_labeled_reads_the_first_non_blank_line(text, labeled):
    schema = AttributeSchema(features=(Attribute("A", ("p", "q")),),
                             target=Attribute("Vote", ("50%", "%s")))
    assert parse_csv(text, schema, None).labeled is labeled
    assert _detect_labeled_per_line(text, schema) is labeled


@given(st.lists(st.sampled_from(["\n", "\r\n", "\r", " ", "\t", "\x0c", "\x1c", "\u2028",
                                 "\ufeff", "A", "Vote", ",", "x"]), max_size=12))
def test_detect_labeled_matches_splitting_every_line(pieces):
    schema = AttributeSchema(features=(Attribute("A", ("p", "q")),),
                             target=Attribute("Vote", ("50%", "%s")))
    text = "".join(pieces)

    def outcome(labeled):
        try:
            return parse_csv(text, schema, labeled)
        except DataError as exc:
            return str(exc)

    # parse_csv left to detect reads the file as the reference's decision does
    try:
        labeled = _detect_labeled_per_line(text, schema)
    except DataError as exc:
        assert outcome(None) == str(exc)
    else:
        assert outcome(None) == outcome(labeled)


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


@pytest.mark.parametrize("raised", [(2**63,), (2**62, 2**62)], ids=["one-count", "total"])
def test_predict_refuses_naive_bayes_counts_beyond_int64(capsys, tmp_path, raised):
    # raise classes' counts and their value-0 rows alike, so every table
    # still sums to the class counts
    model = tmp_path / "nb.model"
    assert run(capsys, "train", "--algo", "naive-bayes", "--out", str(model))[0] == 0
    lines = model.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.startswith("class-counts: ") or re.match(r"table \d+ 0: ", line):
            head, _, tail = line.partition(": ")
            counts = [int(c) + extra for c, extra in zip(tail.split(), (*raised, 0, 0))]
            lines[i] = f"{head}: " + " ".join(map(str, counts))
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "predict", str(model))
    assert (code, out) == (2, "")
    assert err == "data error: class counts must total less than 2**63\n"


@pytest.fixture(scope="module")
def corpus_model_lines():
    data = load_election_corpus()
    return {algo: model_to_text(train(data, algo)).splitlines() for algo in ALGORITHMS}


def _mutate(draw, lines):
    """One drawn change to a model file's payload: a number moved by one,
    negated or raised by 2**62, 2**63 or 2**64, or a line deleted,
    duplicated or swapped with another (``payload-lines`` kept in step
    with a deletion or duplication, or not)."""
    at = next(i for i, line in enumerate(lines) if line.startswith("payload-lines: "))
    lines = list(lines)
    i = draw(st.integers(at + 1, len(lines) - 2))
    kind = draw(st.sampled_from(["number", "number", "delete", "duplicate", "swap"]))
    if kind == "number":
        m = draw(st.sampled_from(list(re.finditer(r"-?\d+", lines[i]))))
        v = int(m.group())
        v = draw(st.sampled_from([v + 1, v - 1, -v, v + 2**62, v + 2**63, v + 2**64]))
        lines[i] = lines[i][: m.start()] + str(v) + lines[i][m.end() :]
    elif kind == "swap":
        j = draw(st.integers(at + 1, len(lines) - 2))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i : i + 1] = [] if kind == "delete" else [lines[i]] * 2
        if draw(st.booleans()):
            lines[at] = f"payload-lines: {len(lines) - at - 2}"
    return lines


@settings(max_examples=250, deadline=None)
@given(draws=st.data())
def test_predict_on_a_mutated_model_file_is_a_prediction_or_a_data_error(
        corpus_model_lines, tmp_path_factory, draws):
    lines = corpus_model_lines[draws.draw(st.sampled_from(ALGORITHMS))]
    for _ in range(draws.draw(st.integers(1, 2))):
        lines = _mutate(draws.draw, lines)
    path = tmp_path_factory.mktemp("mutated") / "model"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", str(path)])
    # never a usage (1) or internal (3) error
    assert code in (0, 2), err.getvalue()
    if code == 0:
        assert not re.search(r"(?i)\b(nan|inf)\b", out.getvalue())
        assert model_to_text(load_model(path)) == path.read_text(encoding="utf-8")
    else:
        assert err.getvalue().startswith("data error: ") and not out.getvalue()


@pytest.mark.parametrize("what, argv", [
    ("data file", ("validate", "--data", "{bad}", "--schema", "{dir}/election.schema")),
    ("schema file", ("validate", "--data", "{dir}/election.csv", "--schema", "{bad}")),
    ("model file", ("predict", "{bad}")),
    ("matrix file", ("evaluate", "--from-matrix", "{bad}")),
])
def test_file_that_is_not_utf8_is_a_data_error_naming_it(capsys, tmp_path, what, argv):
    assert run(capsys, "export-corpus", "--out", str(tmp_path))[0] == 0
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("Age,Sex,Caf\u00e9\n".encode("latin-1"))
    code, _, err = run(capsys, *(a.format(bad=bad, dir=tmp_path) for a in argv))
    assert code == 2
    assert (f"data error: {what} {str(bad)!r} is not UTF-8: byte 0xe9 at offset 11 "
            "(invalid continuation byte)") in err


# one argv per input-file kind; {file} is the file under test, {dir} holds the
# other inputs, and {dir}/<source> is a good file of that kind
_INPUT_FILES = [
    ("data file", "election.csv", ("validate", "--data", "{file}", "--schema", "{dir}/election.schema")),
    ("schema file", "election.schema", ("validate", "--data", "{dir}/election.csv", "--schema", "{file}")),
    ("model file", "tree.model", ("predict", "{file}")),
    ("matrix file", "knn/confusion.tsv", ("evaluate", "--from-matrix", "{file}")),
]


def _write_input_files(capsys, directory):
    assert run(capsys, "export-corpus", "--out", str(directory))[0] == 0
    assert run(capsys, "train", "--algo", "tree", "--out", str(directory / "tree.model"))[0] == 0
    assert run(capsys, "evaluate", "--algo", "knn", "--seed", "1", "--out", str(directory))[0] == 0


@pytest.mark.parametrize("what, source, argv", _INPUT_FILES, ids=[w for w, _, _ in _INPUT_FILES])
def test_byte_order_mark_is_ignored_in_every_input_file(capsys, tmp_path, what, source, argv):
    _write_input_files(capsys, tmp_path)
    plain = tmp_path / source
    marked = tmp_path / "bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    results = [run(capsys, *(a.format(file=file, dir=tmp_path) for a in argv))
               for file in (plain, marked)]
    assert results[0][0] == 0 and results[0][2] == ""
    assert results[1] == results[0]


@pytest.mark.parametrize("what, source, argv", _INPUT_FILES, ids=[w for w, _, _ in _INPUT_FILES])
def test_missing_input_file_is_a_data_error_naming_it(capsys, tmp_path, what, source, argv):
    assert run(capsys, "export-corpus", "--out", str(tmp_path))[0] == 0
    missing = tmp_path / "no" / "such.txt"
    code, out, err = run(capsys, *(a.format(file=missing, dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"data error: cannot read {what} {str(missing)!r}: [Errno 2] ")


# ---------------------------------------------- predict over a large file


def _queries(tmp_path, copies):
    """A query file: the corpus features, unlabeled, ``copies`` times over."""
    corpus = load_election_corpus()
    header, _, body = dataset_to_csv(Dataset(corpus.schema, corpus.matrix, None)).partition("\n")
    path = tmp_path / "queries.csv"
    path.write_text(f"{header}\n{body * copies}", encoding="utf-8")
    return path


def _model(tmp_path, algo):
    path = tmp_path / f"{algo}.model"
    save_model(train(load_election_corpus(), algo), path)
    return path


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_predict_peak_memory_is_a_small_multiple_of_the_query_matrix(tmp_path, algo):
    # the file is read, and the predictions written, one block at a time;
    # the parse's cell list and the (n, d) matrix are most of what is left
    argv = ["predict", str(_model(tmp_path, algo)), "--data", str(_queries(tmp_path, 100)),
            "--out", str(tmp_path / "predictions.tsv")]
    assert main(argv) == 0  # untraced: what a first call imports is no working memory
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((tmp_path / "predictions.tsv").read_bytes().splitlines()) == 10_001
    assert peak < 3 * 10_000 * 9 * 8  # the queries' (n, d) intp matrix


def test_predict_writes_the_same_bytes_in_blocks_to_stdout_and_to_a_file(capsys, tmp_path):
    queries = _queries(tmp_path, 120)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(queries.read_bytes().replace(b"\n", b"\r\n"))
    assert queries.stat().st_size > 2 * _BLOCK_CHARS
    model = _model(tmp_path, "knn")
    # the whole output formatted at once, from the whole file's probabilities
    loaded = load_model(model)
    proba = loaded.predict_proba(parse_csv(queries.read_text(encoding="utf-8"), loaded.schema, None))
    labels = loaded.schema.class_labels
    want = "".join(["index\tprediction\t" + "\t".join(labels) + "\n"] + [
        f"{i}\t{labels[w]}" + "".join(f"\t{p:.6f}" for p in row) + "\n"
        for i, (w, row) in enumerate(zip(predict_labels(proba).tolist(), proba.tolist()))])
    assert len(want.splitlines()) == 12_001
    out_path = tmp_path / "predictions.tsv"
    for data in (queries, crlf):
        assert run(capsys, "predict", str(model), "--data", str(data)) == (0, want, "")
        assert run(capsys, "predict", str(model), "--data", str(data), "--out", str(out_path)) == (
            0, f"wrote predictions to {out_path}\n", "")
        assert out_path.read_bytes() == want.encode("utf-8")


def _with_fault(path, line=None, at=None):
    """``path`` with the first cell of ``line`` (1-based) made unknown, and a
    byte that is not UTF-8 inserted at byte offset ``at``; either may be None."""
    raw = path.read_bytes()
    if line is not None:
        lines = raw.split(b"\n")
        lines[line - 1] = b"Ancient," + lines[line - 1].split(b",", 1)[1]
        raw = b"\n".join(lines)
    if at is not None:
        raw = raw[:at] + b"\xe9" + raw[at:]
    path.write_bytes(raw)
    return path


@pytest.mark.parametrize("line, at, message", [
    (3, 3 * _BLOCK_CHARS, "line 3: unknown value 'Ancient' for attribute 'Age'"),
    (3, 100, "data file {path!r} is not UTF-8: byte 0xe9 at offset 100 (invalid continuation byte)"),
    (5000, 3 * _BLOCK_CHARS,
     f"data file {{path!r}} is not UTF-8: byte 0xe9 at offset {3 * _BLOCK_CHARS} "
     "(invalid continuation byte)"),
], ids=["csv-fault-in-an-earlier-block", "bad-byte-in-the-first-block", "bad-byte-first"])
def test_a_data_file_is_decoded_as_it_is_parsed(capsys, tmp_path, line, at, message):
    # the first fault in reading order is reported: a CSV fault in an earlier
    # block than the first bad byte comes first; both exit 2
    path = _with_fault(_queries(tmp_path, 120), line, at)
    assert path.read_bytes()[at] == 0xE9
    code, out, err = run(capsys, "predict", str(_model(tmp_path, "tree")), "--data", str(path))
    assert (code, out, err) == (2, "", f"data error: {message.format(path=str(path))}\n")


def _replace_from(raw, at, old, new):
    """``raw`` with the first ``old`` at or after byte offset ``at`` made ``new``."""
    i = raw.index(old, at)
    return raw[:i] + new + raw[i + len(old):]


# per input-file kind: the text replaced, and its replacement, to make the
# first fault in the file's first block or in its third
_FAULTS = {
    "data file": ((b"Age", b"Ancient"), (b"\nOld,", b"\nAncient,")),
    "schema file": ((b"attribute Age:", b"attribute Age;"), (b"# ", b"x ")),
    "model file": ((b"params: k=", b"params: k=x"), (b"row: ", b"row: x")),
    "matrix file": ((b"\ttotal\n", b"\ttotals\n"), (b"\n\n", b"\nx\n")),
}


def _multi_block_input(capsys, tmp_path, what):
    """A good input file of kind ``what`` of more than three blocks, and the
    argv that reads it (``{file}`` stands for it) and exits 0."""
    _write_input_files(capsys, tmp_path)
    if what == "data file":
        path = _queries(tmp_path, 120)
        return path, ["predict", str(tmp_path / "tree.model"), "--data", "{file}",
                      "--out", str(tmp_path / "predictions.tsv")]
    if what == "model file":  # a KNN model of 9,000 rows
        corpus = load_election_corpus()
        header, _, body = dataset_to_csv(corpus).partition("\n")
        many = parse_csv(f"{header}\n{body * 90}", corpus.schema, labeled=True)
        path = tmp_path / "knn.model"
        save_model(train(many, "knn"), path)
        return path, ["predict", "{file}", "--data", str(tmp_path / "election.csv"),
                      "--out", str(tmp_path / "predictions.tsv")]
    if what == "schema file":
        path = tmp_path / "big.schema"
        padding = "# a comment line that pads the schema past three blocks\n"
        text = election_schema_text() + padding * (3 * _BLOCK_CHARS // len(padding) + 1)
        argv = ["validate", "--data", str(tmp_path / "election.csv"), "--schema", "{file}"]
    else:
        path = tmp_path / "big.tsv"
        text = (tmp_path / "knn" / "confusion.tsv").read_text(encoding="utf-8")
        text += "\n" * (3 * _BLOCK_CHARS)
        argv = ["evaluate", "--from-matrix", "{file}"]
    path.write_text(text, encoding="utf-8")
    return path, argv


@pytest.mark.parametrize("case", ["read", "early-fault", "late-fault", "bad-byte", "missing"])
@pytest.mark.parametrize("what", list(_FAULTS))
def test_every_input_file_is_closed_on_every_path(capsys, tmp_path, what, case):
    # a file left open would be an unraisable ResourceWarning on stderr; a
    # fault in the first block leaves the reader suspended
    path, argv = _multi_block_input(capsys, tmp_path, what)
    raw = path.read_bytes()
    assert len(raw) > 3 * _BLOCK_CHARS
    if case == "early-fault":
        path.write_bytes(_replace_from(raw, 0, *_FAULTS[what][0]))
    elif case == "late-fault":
        path.write_bytes(_replace_from(raw, 2 * _BLOCK_CHARS, *_FAULTS[what][1]))
    elif case == "bad-byte":
        _with_fault(path, at=2 * _BLOCK_CHARS)
    elif case == "missing":
        path = tmp_path / "missing.txt"
    argv = [a.format(file=path) for a in argv]
    result = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-m", "turnout", *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == (0 if case == "read" else 2), result.stderr
    assert "ResourceWarning" not in result.stderr and "Exception ignored" not in result.stderr
    if case != "read":
        assert result.stderr.startswith("data error: ") and result.stderr.count("\n") == 1
    if (what, case) == ("data file", "late-fault"):
        assert "unknown value 'Ancient' for attribute 'Age'" in result.stderr


@pytest.mark.parametrize("what, at, message", [
    ("schema file", 2 * _BLOCK_CHARS, "line 4: expected '<keyword> <name>: <labels>'"),
    ("schema file", 100, "schema file {path!r} is not UTF-8: byte 0xe9 at offset 100 "
                         "(invalid continuation byte)"),
    ("model file", 2 * _BLOCK_CHARS,
     "bad params line: invalid literal for int() with base 10: 'x5'"),
    ("model file", 100, "model file {path!r} is not UTF-8: byte 0xe9 at offset 100 "
                        "(invalid continuation byte)"),
    # the header is checked on the table's first three nonblank lines
    ("matrix file", 2 * _BLOCK_CHARS, "confusion table header must end with 'total'"),
], ids=["schema-fault-first", "schema-byte-in-block-1", "model-fault-first",
        "model-byte-in-block-1", "matrix-byte-first"])
def test_schema_and_model_files_are_decoded_as_they_are_parsed(capsys, tmp_path, what, at,
                                                               message):
    # as for data files, the first fault in reading order is reported: a
    # grammar fault in block 1 comes before a bad byte in a later block,
    # while a bad byte in block 1 is found before the block is parsed
    path, argv = _multi_block_input(capsys, tmp_path, what)
    path.write_bytes(_replace_from(path.read_bytes(), 0, *_FAULTS[what][0]))
    _with_fault(path, at=at)
    code, out, err = run(capsys, *(a.format(file=path) for a in argv))
    assert (code, out, err) == (2, "", f"data error: {message.format(path=str(path))}\n")


@pytest.mark.parametrize("what, raw, message", [
    ("data file", b"Nothing\n\xc3", "header mismatch: expected"),
    ("schema file", b"attribute x\n\xc3", "line 1: expected '<keyword> <name>: <labels>'"),
    ("model file", b"turnout-model v2\n\xc3", "unsupported model format: 'turnout-model v2'"),
    # the table's first check needs three nonblank lines
    ("matrix file", b"x\n\xc3", "matrix file {path!r} is not UTF-8: byte 0xc3 at offset 2 "
                                 "(unexpected end of data)"),
], ids=["data", "schema", "model", "matrix"])
def test_a_character_cut_short_at_the_end_comes_after_the_lines_before_it(capsys, tmp_path, what,
                                                                          raw, message):
    # the decoder finds an incomplete last character only at the end of the
    # file, after the lines before it have been handed to the parser
    argv = {w: a for w, _, a in _INPUT_FILES}[what]
    assert run(capsys, "export-corpus", "--out", str(tmp_path))[0] == 0
    path = tmp_path / "short.txt"
    path.write_bytes(raw)
    code, out, err = run(capsys, *(a.format(file=path, dir=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"data error: {message.format(path=str(path))}")


# -------------------------------------------------------- process entry


def _collector_state() -> tuple:
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


def test_process_entry_freezes_the_import_time_heap():
    # runpy with alter_sys=True is how ``python -m turnout`` runs the package;
    # the atexit hook reports the collector's state once the command is done
    probe = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count(), gc.isenabled()))\n"
             "sys.argv = ['turnout', 'validate']\n"
             "runpy.run_module('turnout', run_name='__main__', alter_sys=True)\n")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == DESCRIBE
    _, frozen, enabled = result.stdout.splitlines()[-1].split()
    assert int(frozen) > 0
    assert enabled == "True"


def test_cli_imports_classifiers_before_numpy():
    # classifiers.py, the largest module, is then compiled before numpy is
    # loaded, not on top of it: a lower peak for every command.  The finder
    # records the order in which imports start; sys.modules is ordered by
    # when each one finishes, and numpy finishes inside classifiers' import
    probe = ("import sys\n"
             "started = []\n"
             "class Recorder:\n"
             "    def find_spec(name, path=None, target=None):\n"
             "        started.append(name)\n"
             "sys.meta_path.insert(0, Recorder)\n"
             "import turnout.cli\n"
             "print(started.index('turnout.classifiers'), started.index('numpy'))\n")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    classifiers, numpy = map(int, result.stdout.split())
    assert classifiers < numpy


def test_in_process_main_leaves_the_collector_as_it_was(capsys):
    before = _collector_state()
    assert run(capsys, "validate")[0] == 0
    assert _collector_state() == before


def test_train_and_predict_as_processes_write_the_in_process_bytes(capsys, tmp_path):
    def commands(out):
        for algo in ("knn", "naive-bayes", "tree"):
            yield ("train", "--algo", algo, "--out", str(out / f"{algo}.model"))
            yield ("predict", str(out / f"{algo}.model"), "--out", str(out / f"{algo}.tsv"))

    spawned, in_process = tmp_path / "spawned", tmp_path / "in-process"
    for out in (spawned, in_process):
        out.mkdir()
    for argv in commands(spawned):
        result = subprocess.run([sys.executable, "-m", "turnout", *argv],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
    for argv in commands(in_process):
        assert run(capsys, *argv)[0] == 0
    files = sorted(p.name for p in spawned.iterdir())
    assert len(files) == 6
    assert files == sorted(p.name for p in in_process.iterdir())
    for name in files:
        assert (spawned / name).read_bytes() == (in_process / name).read_bytes(), name


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


def test_a_value_error_inside_a_kernel_is_an_internal_error(capsys, monkeypatch):
    # only a UsageError is exit 1; a ValueError the CLI did not expect is a bug
    def broken(self, queries):
        raise ValueError("kernel bug")

    monkeypatch.setattr(KnnModel, "_proba", broken)
    assert run(capsys, "evaluate", "--algo", "knn", "--seed", "1") == (
        3, "", "internal error: kernel bug\n")


# ------------------------------------------------------------- fuzzing


# canonical labels with spaces and the characters that SVG text ('&', '<'),
# file names ('-', ' ') and %-formats ('%') must survive
_LABEL = st.text("ab &<-%", min_size=1, max_size=4).map(canonical_label).filter(bool)


def _labels(n):
    return st.lists(_LABEL, min_size=n, max_size=n, unique=True).map(tuple)


@st.composite
def _survey(draw):
    """A schema of 1-4 features with 2-4 values and 2-3 classes, and 0-30
    labeled records over it; absent and single-record classes included.
    Class labels may share a curve file name (``a b`` and ``a-b``)."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    n_classes = draw(st.integers(2, 3))
    schema = AttributeSchema(
        tuple(Attribute(f"f{j}", draw(_labels(s))) for j, s in enumerate(sizes)),
        Attribute("vote", draw(_labels(n_classes))))
    records = draw(st.lists(st.tuples(st.tuples(*(st.integers(0, s - 1) for s in sizes)),
                                      st.integers(0, n_classes - 1)), max_size=30))
    rows = tuple(row for row, _ in records)
    return schema, rows, tuple(label for _, label in records)


@st.composite
def _flags(draw, n):
    """A CV protocol or --test-on-train, and the four hyperparameters; folds
    and --min-samples reach n + 1 and --k reaches n + 2, past what n records allow."""
    if draw(st.booleans()):
        protocol = ["--test-on-train"]
    else:
        protocol = ["--folds", str(draw(st.integers(2, max(2, n + 1)))),
                    "--seed", str(draw(st.integers(0, 2**32)))]
    hyper = ["--k", str(draw(st.integers(1, n + 2))),
             "--alpha", draw(st.sampled_from(["0", "0.5", "1e308"])),
             "--max-depth", str(draw(st.integers(0, 3))),
             "--min-samples", str(draw(st.integers(2, max(2, n + 1))))]
    return protocol, hyper


def _run_commands(commands, out):
    """Each command's (exit code, stdout, stderr), and every file under ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    results = []
    for argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            results.append((main(argv), stdout.getvalue(), stderr.getvalue()))
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return results, files


@settings(max_examples=60, deadline=None)
@given(survey=_survey(), draws=st.data())
def test_every_generated_input_is_a_result_or_a_named_error_and_reruns_byte_identical(
        tmp_path_factory, survey, draws):
    schema, rows, labels = survey
    protocol, hyper = draws.draw(_flags(len(rows)))
    algo = draws.draw(st.sampled_from(ALGORITHMS))
    work = tmp_path_factory.mktemp("fuzz")
    inputs = {"survey.schema": schema.to_text(),
              "labeled.csv": dataset_to_csv(Dataset(schema, rows, labels)),
              "unlabeled.csv": dataset_to_csv(Dataset(schema, rows, None))}
    for name, text in inputs.items():
        (work / name).write_text(text, encoding="utf-8")
    data = ["--data", str(work / "labeled.csv"), "--schema", str(work / "survey.schema")]
    out = work / "out"
    model = str(out / "model")
    commands = [
        ["validate", *data, "--attribute", "all"],
        ["evaluate", *data, "--algo", "all", "--svg", "--out", str(out / "report"),
         *protocol, *hyper],
        ["train", *data, "--algo", algo, "--out", model, *hyper],
        ["predict", model, *data, "--out", str(out / "labeled.tsv")],
        ["predict", model, "--data", str(work / "unlabeled.csv"),
         "--out", str(out / "unlabeled.tsv")],
    ]
    results, files = _run_commands(commands, out)
    for argv, (code, _, err) in zip(commands, results):
        assert code in (0, 1, 2), (argv, err)
        if code:
            assert err.startswith(("usage error: ", "data error: ")), (argv, err)
    for name, content in files.items():
        assert not NON_FINITE.search(content.decode("utf-8")), name
        if name.endswith(".svg"):
            ET.fromstring(content)  # well-formed XML, whatever the labels hold
    assert _run_commands(commands, out) == (results, files)
