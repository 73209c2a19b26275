"""Deterministic report emitters: TSV tables, curve CSV files, SVG plots.

Numbers in tables are fixed to four decimals; undefined cells render as
``NA``.  Emitters are pure string builders so identical inputs always
produce identical bytes, which the determinism tests rely on.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DataError
from .evaluation import (
    ConfusionMatrix,
    CurveSeries,
    EvaluationReport,
    per_class_metrics,
)

# column -> PerClassMetrics field; a field named in ``undefined`` renders as NA
_METRIC_FIELDS = (("CA", "accuracy"), ("Sens", "sensitivity"), ("Spec", "specificity"),
                  ("F1", "f1"), ("Prec", "precision"), ("Recall", "recall"))
METRIC_COLUMNS = tuple(column for column, _ in _METRIC_FIELDS)


def _cell(value: float, undefined: bool) -> str:
    return "NA" if undefined else f"{value:.4f}"


def format_metrics_table(matrix: ConfusionMatrix) -> str:
    """Per-class metric rows, recomputed from the matrix alone."""
    lines = ["class\t" + "\t".join(METRIC_COLUMNS)]
    for c in range(len(matrix.labels)):
        m = per_class_metrics(matrix, c)
        cells = [m.label]
        for _, field in _METRIC_FIELDS:
            cells.append(_cell(getattr(m, field), field in m.undefined))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def format_confusion_table(matrix: ConfusionMatrix) -> str:
    """Actual-by-predicted counts with row, column, and grand totals."""
    lines = ["actual\\predicted\t" + "\t".join(matrix.labels) + "\ttotal"]
    for label, row in zip(matrix.labels, matrix.counts):
        lines.append(label + "\t" + "\t".join(str(c) for c in row) + f"\t{sum(row)}")
    columns = [sum(row[j] for row in matrix.counts) for j in range(len(matrix.labels))]
    lines.append("total\t" + "\t".join(str(c) for c in columns) + f"\t{matrix.n}")
    return "\n".join(lines) + "\n"


def parse_confusion_table(text: str) -> ConfusionMatrix:
    """Read the table ``format_confusion_table`` writes (margins checked)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 3:
        raise DataError("confusion table needs a header, class rows, and a total row")
    header = lines[0].split("\t")
    if len(header) < 3 or header[-1] != "total":
        raise DataError("confusion table header must end with 'total'")
    labels = tuple(header[1:-1])
    k = len(labels)
    if len(lines) != k + 2:
        raise DataError(f"expected {k} class rows plus totals, got {len(lines) - 2}")
    counts: list[tuple[int, ...]] = []
    for label, line in zip(labels, lines[1:-1]):
        cells = line.split("\t")
        if len(cells) != k + 2 or cells[0] != label:
            raise DataError(f"malformed confusion row {line!r}")
        try:
            row = [int(c) for c in cells[1:]]
        except ValueError:
            raise DataError(f"non-integer count in row {line!r}") from None
        if row[-1] != sum(row[:-1]):
            raise DataError(f"row margin mismatch for class {label!r}")
        counts.append(tuple(row[:-1]))
    total_cells = lines[-1].split("\t")
    if len(total_cells) != k + 2 or total_cells[0] != "total":
        raise DataError("confusion table must end with a 'total' row")
    try:
        totals = [int(c) for c in total_cells[1:]]
    except ValueError:
        raise DataError("non-integer count in total row") from None
    for j in range(k):
        if totals[j] != sum(row[j] for row in counts):
            raise DataError(f"column margin mismatch for class {labels[j]!r}")
    matrix = ConfusionMatrix(counts=tuple(counts), labels=labels)
    if totals[-1] != matrix.n:
        raise DataError("grand total mismatch")
    return matrix


def format_curve_csv(series: CurveSeries, algorithm: str) -> str:
    """Curve points as CSV; every row names its kind, class, and algorithm."""
    lines = ["kind,class,algorithm,x,y"]
    for x, y in series.points:
        lines.append(f"{series.kind},{series.label},{algorithm},{x:.6f},{y:.6f}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- SVG


_W = _H = 480
_MARGIN = 48
_PLOT = _W - 2 * _MARGIN


def _px(x: float, y: float, y_max: float) -> tuple[float, float]:
    return _MARGIN + x * _PLOT, _MARGIN + (1.0 - y / y_max) * _PLOT


def curve_svg(series: CurveSeries) -> str:
    """Minimal standalone plot: axes, unit box, the polyline (a single
    marker for a one-point series), and (for roc and calibration) the
    diagonal reference line."""
    if not series.points:
        raise ValueError("svg rendering needs at least one curve point")
    y_max = max(1.0, max(y for _, y in series.points))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT}" height="{_PLOT}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    if series.kind in ("roc", "calibration"):
        x0, y0 = _px(0.0, 0.0, y_max)
        x1, y1 = _px(1.0, 1.0, y_max)
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
            'stroke="#bbb" stroke-width="1" stroke-dasharray="4 4"/>'
        )
    if len(series.points) == 1:
        cx, cy = _px(*series.points[0], y_max)
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="#1f6fb2"/>')
    else:
        coords = " ".join(
            "{:.2f},{:.2f}".format(*_px(x, y, y_max)) for x, y in series.points
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f6fb2" stroke-width="2"/>'
        )
    title = f"{series.kind}: {series.label}"
    if series.auc is not None:
        title += f" (auc {series.auc:.4f})"
    parts.append(
        f'<text x="{_MARGIN}" y="{_MARGIN - 16}" font-family="sans-serif" '
        f'font-size="14">{title}</text>'
    )
    axis_y = _MARGIN + _PLOT
    parts.append(
        f'<text x="{_MARGIN}" y="{axis_y + 28}" font-family="sans-serif" font-size="12">0</text>'
    )
    parts.append(
        f'<text x="{_MARGIN + _PLOT - 8}" y="{axis_y + 28}" font-family="sans-serif" '
        'font-size="12">1</text>'
    )
    parts.append(
        f'<text x="{_MARGIN - 24}" y="{_MARGIN + 8}" font-family="sans-serif" '
        f'font-size="12">{y_max:g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------- writing


def slug(label: str) -> str:
    """File-name-safe form of a class label (spaces become underscores)."""
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def curve_filename(series: CurveSeries, suffix: str = "csv") -> str:
    return f"{series.kind}_{slug(series.label)}.{suffix}"


def write_report(report: EvaluationReport, outdir: str | Path, svg: bool = False) -> list[Path]:
    """Write metrics.tsv, confusion.tsv, and one CSV (plus optional SVG)
    per curve into ``outdir``; returns the paths written."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    emit("metrics.tsv", format_metrics_table(report.matrix))
    emit("confusion.tsv", format_confusion_table(report.matrix))
    for series in report.curves:
        emit(curve_filename(series), format_curve_csv(series, report.algorithm))
        if svg:
            emit(curve_filename(series, "svg"), curve_svg(series))
    return written
