import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from turnout import (
    Attribute,
    AttributeSchema,
    ConfusionMatrix,
    CurveSeries,
    DataError,
    Dataset,
    Protocol,
    evaluate,
    lift_points,
    load_election_corpus,
    roc_points,
)
from turnout.report import (
    curve_filename,
    curve_svg,
    format_confusion_table,
    format_curve_csv,
    format_metrics_table,
    parse_confusion_table,
    slug,
    write_report,
)
from turnout.cli import main
from turnout.data import read_blocks

MATRIX = ConfusionMatrix(counts=((3, 1), (2, 4)), labels=("a", "b"))


# -------------------------------------------------------------- tables


def test_metrics_table_hand_example():
    assert format_metrics_table(MATRIX) == (
        "class\tCA\tSens\tSpec\tF1\tPrec\tRecall\n"
        "a\t0.7000\t0.7500\t0.6667\t0.6667\t0.6000\t0.7500\n"
        "b\t0.7000\t0.6667\t0.7500\t0.7273\t0.8000\t0.6667\n"
    )


def test_metrics_table_renders_undefined_cells_as_na():
    matrix = ConfusionMatrix(counts=((0, 2), (0, 8)), labels=("a", "b"))
    assert format_metrics_table(matrix) == (
        "class\tCA\tSens\tSpec\tF1\tPrec\tRecall\n"
        "a\t0.8000\t0.0000\t1.0000\tNA\tNA\t0.0000\n"
        "b\t0.8000\t1.0000\t0.0000\t0.8889\t0.8000\t1.0000\n"
    )


def test_confusion_table_hand_example():
    assert format_confusion_table(MATRIX) == (
        "actual\\predicted\ta\tb\ttotal\n"
        "a\t3\t1\t4\n"
        "b\t2\t4\t6\n"
        "total\t5\t5\t10\n"
    )


def test_confusion_table_round_trips():
    parsed = parse_confusion_table(format_confusion_table(MATRIX))
    assert parsed.counts == MATRIX.counts
    assert parsed.labels == MATRIX.labels


def test_confusion_parser_checks_margins():
    good = format_confusion_table(MATRIX)
    with pytest.raises(DataError, match="row margin"):
        parse_confusion_table(good.replace("a\t3\t1\t4", "a\t3\t1\t5"))
    with pytest.raises(DataError, match="column margin"):
        parse_confusion_table(good.replace("total\t5\t5\t10", "total\t6\t5\t10"))
    with pytest.raises(DataError, match="grand total"):
        parse_confusion_table(good.replace("total\t5\t5\t10", "total\t5\t5\t11"))


def test_confusion_parser_rejects_malformed_tables():
    good = format_confusion_table(MATRIX)
    with pytest.raises(DataError, match="header"):
        parse_confusion_table(good.replace("\ttotal\n", "\tsum\n", 1))
    with pytest.raises(DataError, match="non-integer"):
        parse_confusion_table(good.replace("a\t3\t1\t4", "a\tx\t1\t4"))
    with pytest.raises(DataError):
        parse_confusion_table("actual\\predicted\ta\tb\ttotal\n")
    missing_row = "\n".join(good.splitlines()[:-2]) + "\n" + good.splitlines()[-1] + "\n"
    with pytest.raises(DataError):
        parse_confusion_table(missing_row)


def test_confusion_parser_keeps_only_the_lines_its_header_calls_for(tmp_path):
    # 200,000 lines past a good header are counted, not held
    path = tmp_path / "matrix.tsv"
    path.write_text("actual\\predicted\ta\tb\ttotal\n" + "x\n" * 200_000, encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="^expected 2 class rows plus totals, got 199999$"):
            parse_confusion_table(read_blocks(path, "matrix file"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("total, message", [
    ("sum\t5\t5\t10", "confusion table must end with a 'total' row"),
    ("total\t5\t5", "confusion table must end with a 'total' row"),
    ("total\t5\t5\t10\t10", "confusion table must end with a 'total' row"),
    ("total\t5\t5\tten", "non-integer count in total row"),
    ("total\t5\t5.0\t10", "non-integer count in total row"),
])
def test_confusion_parser_names_a_bad_total_row(tmp_path, capsys, total, message):
    text = format_confusion_table(MATRIX).replace("total\t5\t5\t10", total)
    with pytest.raises(DataError, match=f"^{message}$"):
        parse_confusion_table(text)
    path = tmp_path / "matrix.tsv"
    path.write_text(text)
    assert main(["evaluate", "--from-matrix", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


# -------------------------------------------------------------- curves


def test_curve_csv_layout():
    curve = roc_points([0.9, 0.8, 0.3, 0.1], [True, False, True, False], label="a")
    text = format_curve_csv(curve, "knn")
    lines = text.splitlines()
    assert lines[0] == "kind,class,algorithm,x,y"
    assert len(lines) == len(curve.points) + 1
    assert lines[1] == "roc,a,knn,0.000000,0.000000"
    assert lines[-1] == "roc,a,knn,1.000000,1.000000"


@pytest.mark.parametrize("label, algorithm", [("a", "knn"), ("50% {x}", "%s%%"), ("", "%.6f")])
def test_curve_csv_equals_one_f_string_per_point(label, algorithm):
    curve = lift_points([0.9, 0.8, 0.8, 1 / 3, 0.1, -0.0], [True, False, True, False, True, False],
                        label=label)
    rows = [f"{curve.kind},{label},{algorithm},{x:.6f},{y:.6f}\n" for x, y in curve.points]
    assert format_curve_csv(curve, algorithm) == "kind,class,algorithm,x,y\n" + "".join(rows)


def test_svg_is_deterministic_and_well_formed():
    curve = roc_points([0.9, 0.8, 0.3, 0.1], [True, False, True, False], label="a")
    one, two = curve_svg(curve), curve_svg(curve)
    assert one == two
    assert one.startswith("<svg ")
    assert one.rstrip().endswith("</svg>")
    assert "<polyline" in one
    assert "stroke-dasharray" in one  # roc carries the diagonal reference


def test_svg_pixel_mapping_of_unit_corners():
    # plot area is 384px wide starting at 48: (0,0) -> bottom left corner
    curve = roc_points([0.9, 0.8, 0.3, 0.1], [True, False, True, False])
    svg = curve_svg(curve)
    assert "48.00,432.00" in svg
    assert "432.00,48.00" in svg


def test_svg_scales_to_lift_above_one():
    curve = CurveSeries(kind="lift", label="a", points=((0.25, 2.0), (1.0, 1.0)))
    svg = curve_svg(curve)
    assert "stroke-dasharray" not in svg  # no diagonal for lift
    # y_max is 2, so the top label reads 2 and y=2 hits the top edge
    assert ">2</text>" in svg
    assert "144.00,48.00" in svg


def test_svg_renders_one_point_as_a_marker():
    svg = curve_svg(CurveSeries(kind="calibration", label="a", points=((0.5, 0.25),)))
    assert '<circle cx="240.00" cy="336.00" r="3"' in svg
    assert "<polyline" not in svg
    assert svg.rstrip().endswith("</svg>")
    with pytest.raises(ValueError):
        curve_svg(CurveSeries(kind="lift", label="a", points=()))


def test_svg_title_escapes_markup_in_the_class_label():
    # a schema label may hold '&', '<' and '>'; each SVG was rejected by XML parsers
    for label in ("yes & no", "<none>", "a > b & <c>"):
        svg = curve_svg(CurveSeries(kind="roc", label=label, points=((0, 0), (1, 1)), auc=0.5))
        title = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text")
        assert title.text == f"roc: {label} (auc 0.5000)"


def test_filenames_are_slugged():
    assert slug("Possible participation") == "Possible_participation"
    curve = CurveSeries(kind="roc", label="Possible participation", points=((0, 0), (1, 1)))
    assert curve_filename(curve) == "roc_Possible_participation.csv"
    assert curve_filename(curve, "svg") == "roc_Possible_participation.svg"


# ------------------------------------------------------------- writing


def test_write_report_emits_every_artifact(tmp_path):
    corpus = load_election_corpus()
    report = evaluate(corpus, "tree", protocol=Protocol(kind="test-on-train"))
    written = write_report(report, tmp_path / "out", svg=True)
    names = sorted(p.name for p in written)
    assert "metrics.tsv" in names
    assert "confusion.tsv" in names
    assert sum(1 for n in names if n.endswith(".csv")) == 9
    assert sum(1 for n in names if n.endswith(".svg")) == 9
    assert len(names) == len(set(names))
    parsed = parse_confusion_table((tmp_path / "out" / "confusion.tsv").read_text())
    assert parsed.counts == report.matrix.counts


def test_write_report_is_byte_deterministic(tmp_path):
    corpus = load_election_corpus()
    report = evaluate(corpus, "knn", protocol=Protocol(kind="cv", folds=10, seed=42))
    first = write_report(report, tmp_path / "one", svg=True)
    second = write_report(report, tmp_path / "two", svg=True)
    for a, b in zip(first, second):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()


def test_write_report_refuses_class_labels_whose_files_collide(tmp_path):
    # both labels slug to a_b: the run exited 0 and kept only the a-b curves
    schema = AttributeSchema((Attribute("f", ("x", "y")),), Attribute("t", ("a b", "a-b", "c")))
    data = Dataset(schema, ((0,), (1,), (0,)), (0, 1, 2))
    report = evaluate(data, "knn", protocol=Protocol(kind="test-on-train"))
    with pytest.raises(DataError) as caught:
        write_report(report, tmp_path / "out", svg=True)
    assert str(caught.value) == "class labels 'a b' and 'a-b' would both write 'calibration_a_b.csv'"
    assert not (tmp_path / "out").exists()
