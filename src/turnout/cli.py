"""Command-line front end.

Subcommands: validate, evaluate, train, predict, export-corpus.
Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

import numpy as np

from . import corpus
from .classifiers import ALGORITHMS, Hyperparams, predict_labels, train
from .data import (
    AttributeSchema,
    Dataset,
    canonical_label,
    class_counts,
    crosstab,
    parse_csv,
    parse_schema,
    strip_bom,
)
from .errors import DataError, InputError, not_utf8
# bound here, like Dataset, because tracing wraps them through cli's namespace
from .model_io import load_model, save_model

EMBEDDED = "embedded:election"


class UsageError(Exception):
    """Bad flag combination or flag value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="turnout", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", default=EMBEDDED,
                       help=f"data file path, or {EMBEDDED!r} (default)")
        p.add_argument("--schema", default=None, help="schema file path (required for file data)")

    def add_hyper_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, default=5, help="KNN neighbor count (default 5)")
        p.add_argument("--alpha", type=float, default=1.0,
                       help="naive Bayes smoothing (default 1.0)")
        p.add_argument("--min-samples", type=int, default=2,
                       help="minimum records to split a tree node (default 2)")
        p.add_argument("--max-depth", type=int, default=None,
                       help="tree depth cap (default: unlimited)")

    p = sub.add_parser("validate", help="parse and describe a data file")
    add_data_flags(p)
    p.add_argument("--attribute", action="append", default=None,
                   help="print the crosstab for this attribute ('all' for every one)")

    p = sub.add_parser("evaluate", help="run an evaluation protocol and emit reports")
    add_data_flags(p)
    add_hyper_flags(p)
    p.add_argument("--algo", default="all", choices=ALGORITHMS + ("all",))
    p.add_argument("--folds", type=int, default=None,
                   help="cross-validation folds (default 10; not with --test-on-train)")
    p.add_argument("--seed", type=int, default=None, help="shuffle seed (required for CV)")
    p.add_argument("--test-on-train", action="store_true",
                   help="train and test on the full dataset instead of CV")
    p.add_argument("--from-matrix", default=None, metavar="FILE",
                   help="recompute the metrics table from an emitted confusion.tsv")
    p.add_argument("--out", default=None, help="directory for report files")
    p.add_argument("--svg", action="store_true", help="also render curves as SVG")
    p.add_argument("--jobs", type=int, default=1,
                   help="kept for compatibility; folds run sequentially (must be >= 1)")

    p = sub.add_parser("train", help="fit a model and save it")
    add_data_flags(p)
    add_hyper_flags(p)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("predict", help="load a model and predict records")
    p.add_argument("model", help="model file written by train")
    add_data_flags(p)
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("export-corpus", help="write the embedded survey to files")
    p.add_argument("--out", required=True, help="directory for election.schema and election.csv")

    return parser


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(not_utf8(what, path, exc)) from None


def _detect_labeled(text: str, schema: AttributeSchema) -> bool:
    # line breaks are whitespace: the first non-blank line starts at the first non-space
    head = strip_bom(text).lstrip().partition("\n")[0].splitlines()
    if not head:
        raise DataError("data file has no header line")
    labeled = [*schema.feature_names, schema.target.name]
    return [canonical_label(c) for c in head[0].split(",")] == labeled


def _load_data(args: argparse.Namespace, labeled: bool | None,
               fallback_schema: AttributeSchema | None = None) -> tuple[Dataset, str]:
    """Load --data/--schema; ``labeled=None`` auto-detects from the header."""
    if args.data == EMBEDDED:
        schema = corpus.load_election_schema()
        text = corpus.election_csv_text()
        source = EMBEDDED
    elif args.data.startswith("embedded:"):
        raise DataError(f"unknown embedded dataset {args.data!r}")
    else:
        if args.schema is not None:
            schema = parse_schema(_read_text(args.schema, "schema file"))
        elif fallback_schema is not None:
            schema = fallback_schema
        else:
            raise UsageError("--schema is required when --data is a file path")
        text = _read_text(args.data, "data file")
        source = args.data
    if labeled is None:
        labeled = _detect_labeled(text, schema)
    return parse_csv(text, schema, labeled=labeled), source


def _load_training_data(args: argparse.Namespace) -> tuple[Dataset, str]:
    """Load labeled --data/--schema with at least one record."""
    data, source = _load_data(args, labeled=True)
    if data.n == 0:
        raise DataError(f"dataset {source!r} has no records")
    return data, source


def _hyperparams(args: argparse.Namespace) -> Hyperparams:
    return Hyperparams(
        knn_k=args.k,
        nb_alpha=args.alpha,
        tree_min_samples=args.min_samples,
        tree_max_depth=args.max_depth,
    )


def _describe_classes(data: Dataset) -> str:
    counts = class_counts(data)
    parts = [f"{label}={count}" for label, count in zip(data.schema.class_labels, counts)]
    return f"{data.n} records; classes: " + ", ".join(parts)


def _crosstab_text(data: Dataset, attribute: str) -> str:
    table = crosstab(data, attribute)
    labels = data.schema.class_labels
    lines = [f"crosstab: {attribute}"]
    lines.append("\t" + "\t".join(labels) + "\ttotal")
    attr = data.schema.features[data.schema.feature_index(attribute)]
    for v, row in enumerate(table):
        lines.append(attr.values[v] + "\t" + "\t".join(str(c) for c in row) + f"\t{int(row.sum())}")
    columns = table.sum(axis=0)
    lines.append("total\t" + "\t".join(str(int(c)) for c in columns) + f"\t{int(table.sum())}")
    return "\n".join(lines)


def _cmd_validate(args: argparse.Namespace) -> int:
    data, _ = _load_data(args, labeled=None)
    if data.labeled:
        print(_describe_classes(data))
    else:
        print(f"{data.n} records; unlabeled")
    names: list[str] = []
    for requested in args.attribute or []:
        if requested == "all":
            names.extend(data.schema.feature_names)
        else:
            names.append(requested)
    for name in names:
        print()
        print(_crosstab_text(data, name))
    return 0


def _tree_root_note(data: Dataset, params: Hyperparams) -> str:
    # only the root's attribute is reported, so one level is grown; a user
    # cap of 0 stays 0, and the root's decision is the same at any cap >= 1
    depth = 1 if params.tree_max_depth is None else min(params.tree_max_depth, 1)
    model = train(data, "tree", Hyperparams(tree_min_samples=params.tree_min_samples,
                                            tree_max_depth=depth))
    attribute = int(model.attribute[0])
    root = data.schema.features[attribute].name if attribute >= 0 else "(single leaf)"
    verdict = "agrees" if root == corpus.REFERENCE_TREE_ROOT else "differs"
    return (f"tree root attribute: {root} "
            f"(reference: {corpus.REFERENCE_TREE_ROOT}; {verdict})")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import Protocol, class_accuracy, evaluate, majority_baseline
    from .report import (format_confusion_table, format_metrics_table, parse_confusion_table,
                         write_report)

    if args.from_matrix is not None:
        matrix = parse_confusion_table(_read_text(args.from_matrix, "matrix file"))
        table = format_metrics_table(matrix)
        print(table, end="")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "metrics.tsv").write_text(table, encoding="utf-8")
        return 0

    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    if args.test_on_train:
        for flag in ("folds", "seed"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--test-on-train does not take --{flag}")
        protocol = Protocol(kind="test-on-train")
    else:
        if args.seed is None:
            raise UsageError("--seed is required for cross-validation")
        folds = 10 if args.folds is None else args.folds
        protocol = Protocol(kind="cv", folds=folds, seed=args.seed)

    data, source = _load_training_data(args)
    params = _hyperparams(args)
    algos = ALGORITHMS if args.algo == "all" else (args.algo,)

    summary = [
        f"dataset: {source} ({data.n} records)",
        f"protocol: {protocol.describe()}",
        f"baseline accuracy (majority class): {majority_baseline(data):.4f}",
    ]
    reports = {}
    for algo in algos:
        reports[algo] = evaluate(data, algo, params, protocol)
        summary.append(f"{algo}: CA {class_accuracy(reports[algo].matrix):.4f}")
    if "tree" in algos:
        summary.append(_tree_root_note(data, params))
    summary_text = "\n".join(summary) + "\n"
    print(summary_text, end="")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for algo in algos:
            write_report(reports[algo], out / algo, svg=args.svg)
        (out / "summary.txt").write_text(summary_text, encoding="utf-8")
        print(f"wrote reports under {out}")
    else:
        for algo in algos:
            print(f"\n[{algo}]")
            print(format_metrics_table(reports[algo].matrix), end="")
            print(format_confusion_table(reports[algo].matrix), end="")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    data, _ = _load_training_data(args)
    model = train(data, args.algo, _hyperparams(args))
    save_model(model, args.out)
    print(f"wrote {args.algo} model to {args.out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    data, _ = _load_data(args, labeled=None, fallback_schema=model.schema)
    proba = model.predict_proba(data)
    winners = predict_labels(proba).tolist()
    labels = model.schema.class_labels
    lines = ["index\tprediction\t" + "\t".join(labels)]
    line = "%d\t%s" + "\t%.6f" * len(labels)  # labels are arguments: they may hold '%'
    lines += [line % (i, labels[w], *row)
              for i, (w, row) in enumerate(zip(winners, map(np.ndarray.tolist, proba)))]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote predictions to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_export_corpus(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    schema_path = out / "election.schema"
    data_path = out / "election.csv"
    schema_path.write_text(corpus.election_schema_text(), encoding="utf-8")
    data_path.write_text(corpus.election_csv_text(), encoding="utf-8")
    print(f"wrote {schema_path}")
    print(f"wrote {data_path}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "evaluate": _cmd_evaluate,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "export-corpus": _cmd_export_corpus,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - nothing should land here
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    """Process entry for ``python -m turnout`` and the ``turnout`` script."""
    # The process exits when main returns, so what the imports made (numpy,
    # argparse, turnout) lives until then: frozen, no collection walks it,
    # shutdown's included.  main does not freeze, because library callers
    # run on after it.
    gc.freeze()
    sys.exit(main())
