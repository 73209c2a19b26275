"""In-process span tracing of the turnout package, from outside its source.

``Tracer.install`` replaces the public functions that ``turnout.cli``,
``turnout.corpus``, ``turnout.evaluation`` and ``turnout.report`` call
through their module namespaces, plus ``Dataset`` as imported by ``cli``
and ``evaluation`` and the two ``TrainedModel`` prediction methods, with
wrappers that record one span per call.  ``Tracer.uninstall`` puts the
originals back, so untraced calls run the unmodified package.

Spans live in memory in a plain list, one list per span: name, start_ns,
end_ns, parent, op, invocation, group, count and bytes.  ``parent`` is the
index of the enclosing span or -1.  ``count`` and ``bytes`` are the work the
call did (rows, files or thresholds, and bytes written or read), taken from
its arguments or result after the span has ended.  A span's self time is
its duration minus the time its children cover.
"""

from __future__ import annotations

import gzip
import inspect
import os
import statistics
import time
from pathlib import Path
from typing import Iterator

ALGOS = ("knn", "naive-bayes", "tree")


def _rows(args, kwargs, result):
    return result.n, 0


def _roc_thresholds(args, kwargs, result):
    return len(result.points) - 1, 0  # one point per distinct score, after (0, 0)


def _report_files(args, kwargs, result):
    return len(result), sum(path.stat().st_size for path in result)


def _model_file(args, kwargs, result):
    path = args[-1] if args else kwargs["path"]
    return 1, os.path.getsize(path)


# span name -> (args, kwargs, result) -> (count, bytes), read after the span ends
_COUNTERS = {
    "data.parse_csv": _rows,
    "data.Dataset": _rows,
    "evaluation.roc_points": _roc_thresholds,
    "report.write_report": _report_files,
    "model_io.save_model": _model_file,
    "model_io.load_model": _model_file,
}


def _span_name(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """Records spans while installed; holds them until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._tag: tuple[int, str, str] = (-1, "", "")  # op, invocation, group

    def begin(self, op: int, invocation: str, group: str) -> None:
        """Tag the spans that follow with an operation and an invocation."""
        self._tag = (op, invocation, group)

    # ------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, *self._tag, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[7], span[8] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, fn, name: str) -> None:
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name))

    def install(self) -> None:
        """Wrap the calls into each layer until ``uninstall``."""
        from turnout import cli, corpus, evaluation, report
        from turnout.classifiers import TrainedModel

        for module in (cli, corpus, evaluation, report):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("turnout."):
                    continue
                if value.__module__ == "turnout.cli" and attr != "main":
                    continue  # cli's own helpers count as cli self time
                self._patch(module, attr, value, _span_name(value))
        self._patch(cli, "_tree_root_note", cli._tree_root_note, "cli._tree_root_note")
        for module in (cli, evaluation):
            self._patch(module, "Dataset", module.Dataset, "data.Dataset")
        for attr in ("predict_proba_row", "predict_proba"):
            self._patch(TrainedModel, attr, vars(TrainedModel)[attr], f"classifiers.TrainedModel.{attr}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # --------------------------------------------------------- output

    def ops(self) -> Iterator[tuple[int, list[tuple]]]:
        """Spans grouped by operation, as (name, start, end, parent, invocation,
        group, count, bytes) with ``parent`` relative to the operation's first span."""
        spans = self.spans
        lo = 0
        while lo < len(spans):
            op = spans[lo][4]
            hi = lo
            while hi < len(spans) and spans[hi][4] == op:
                hi += 1
            yield op, [(name, start, end, parent - lo if parent >= 0 else -1, inv, group, count, nbytes)
                       for name, start, end, parent, _, inv, group, count, nbytes in spans[lo:hi]]
            lo = hi

    def write(self, path: Path) -> None:
        """All spans as gzip-compressed TSV, one line each, in call order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("op\tid\tparent\tinvocation\tgroup\tname\tstart_ns\tend_ns\tcount\tbytes\n")
            for op, spans in self.ops():
                for sid, (name, start, end, parent, inv, group, count, nbytes) in enumerate(spans):
                    out.write(f"{op}\t{sid}\t{parent}\t{inv}\t{group}\t{name}\t{start}\t{end}"
                              f"\t{count}\t{nbytes}\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Duration minus the union of the children's intervals, per span."""
    children: list[list[int]] = [[] for _ in spans]
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, *_rest) in enumerate(spans):
        covered = 0
        reach = start
        for cid in sorted(children[sid], key=lambda c: spans[c][1]):
            c_start, c_end = max(spans[cid][1], reach), min(spans[cid][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


# ----------------------------------------------------------- metrics

_EVAL_METRICS = ("evaluation.per_class_metrics", "evaluation.class_accuracy",
                 "evaluation.majority_baseline")
_EVAL_CURVES = ("evaluation.roc_points", "evaluation.lift_points", "evaluation.calibration_points")
_EVAL_CV = ("evaluation.cross_validate", "evaluation.evaluate", "evaluation.test_on_train")
_PREDICT = ("classifiers.TrainedModel.predict_proba_row", "classifiers.TrainedModel.predict_proba",
            "classifiers.predict_label")

# name, unit; the values come from ``_op_values``
LAYER_METRICS = (
    ("cli.main_s", "s"),
    ("cli.tree_root_train_s", "s"),
    ("corpus.load_s", "s"),
    ("data.parse_csv_s", "s"),
    ("data.parse_csv.rows", "count"),
    ("data.dataset_init_s", "s"),
    ("data.dataset_init.rows", "count"),
    ("data.revalidation_ratio", "ratio"),
    ("classifiers.train_s", "s"),
    ("classifiers.train.calls", "count"),
    ("classifiers.predict_s", "s"),
    ("classifiers.predict.rows", "count"),
    ("classifiers.predict.us_per_row", "us"),
    ("evaluation.folds_s", "s"),
    ("evaluation.cv_s", "s"),
    ("evaluation.metrics_s", "s"),
    ("evaluation.curves_s", "s"),
    ("evaluation.roc.thresholds", "count"),
    ("report.write_s", "s"),
    ("report.svg_s", "s"),
    ("report.files", "count"),
    ("report.bytes", "bytes"),
    ("model_io.save_s", "s"),
    ("model_io.load_s", "s"),
    ("model_io.bytes", "bytes"),
)

RUN_METRICS = (
    ("import.turnout_s", "s"),
    ("import.numpy_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = list(RUN_METRICS) + list(LAYER_METRICS)
    for algo in ALGOS:
        names += [(f"{algo}.{name}", unit) for name, unit in LAYER_METRICS]
    return names


def _op_values(selected: list[int], spans: list[tuple], self_ns: list[int],
               tree_notes: set[int]) -> dict[str, float]:
    """Layer metrics of one operation, from the indices of its spans."""
    self_by_name: dict[str, int] = {}
    count_by_name: dict[str, int] = {}
    bytes_by_name: dict[str, int] = {}
    calls_by_name: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    tree_root_train = 0
    for sid in selected:
        name, start, end, parent, _inv, _group, count, nbytes = spans[sid]
        self_by_name[name] = self_by_name.get(name, 0) + self_ns[sid]
        count_by_name[name] = count_by_name.get(name, 0) + count
        bytes_by_name[name] = bytes_by_name.get(name, 0) + nbytes
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns[sid]
        if parent in tree_notes:
            tree_root_train += end - start

    def s(*names: str) -> float:
        return sum(self_by_name.get(n, 0) for n in names) / 1e9

    svg = s("report.curve_svg")
    predict_s = s(*_PREDICT)
    predict_rows = calls_by_name.get("classifiers.TrainedModel.predict_proba_row", 0)
    parsed = count_by_name.get("data.parse_csv", 0)
    revalidated = count_by_name.get("data.Dataset", 0)
    return {
        "cli.main_s": layer_self.get("cli", 0) / 1e9,
        "cli.tree_root_train_s": tree_root_train / 1e9,
        "corpus.load_s": layer_self.get("corpus", 0) / 1e9,
        "data.parse_csv_s": s("data.parse_csv"),
        "data.parse_csv.rows": parsed,
        "data.dataset_init_s": s("data.Dataset"),
        "data.dataset_init.rows": revalidated,
        "data.revalidation_ratio": (parsed + revalidated) / parsed if parsed else 0.0,
        "classifiers.train_s": s("classifiers.train"),
        "classifiers.train.calls": calls_by_name.get("classifiers.train", 0),
        "classifiers.predict_s": predict_s,
        "classifiers.predict.rows": predict_rows,
        "classifiers.predict.us_per_row": predict_s / predict_rows * 1e6 if predict_rows else 0.0,
        "evaluation.folds_s": s("evaluation.stratified_folds"),
        "evaluation.cv_s": s(*_EVAL_CV),
        "evaluation.metrics_s": s(*_EVAL_METRICS),
        "evaluation.curves_s": s(*_EVAL_CURVES),
        "evaluation.roc.thresholds": count_by_name.get("evaluation.roc_points", 0),
        "report.write_s": layer_self.get("report", 0) / 1e9 - svg,
        "report.svg_s": svg,
        "report.files": count_by_name.get("report.write_report", 0),
        "report.bytes": bytes_by_name.get("report.write_report", 0),
        "model_io.save_s": s("model_io.save_model"),
        "model_io.load_s": s("model_io.load_model"),
        "model_io.bytes": bytes_by_name.get("model_io.save_model", 0),
    }


def layer_metrics(tracer: Tracer, wall_groups: tuple[str, ...]) -> dict[str, float]:
    """Median over traced operations of each per-layer metric.

    Unprefixed metrics cover the invocations whose time makes up
    ``wall_s``; ``<algo>.`` metrics cover that algorithm's invocations.
    """
    selections = {"": wall_groups, **{f"{a}.": (a,) for a in ALGOS}}
    per_op: dict[str, list[float]] = {}
    for _op, spans in tracer.ops():
        self_ns = self_times(spans)
        tree_notes = {sid for sid, span in enumerate(spans) if span[0] == "cli._tree_root_note"}
        for prefix, groups in selections.items():
            chosen = [sid for sid, span in enumerate(spans) if span[5] in groups]
            for name, value in _op_values(chosen, spans, self_ns, tree_notes).items():
                per_op.setdefault(prefix + name, []).append(value)
    return {name: statistics.median(values) for name, values in per_op.items()}
