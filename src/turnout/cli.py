"""Command-line front end.

Subcommands: validate, evaluate, train, predict, export-corpus.
Exit codes: 0 success, 1 usage error (UsageError), 2 data error (InputError
or OSError), 3 internal error (any other exception: a bug).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from pathlib import Path

# first, so that classifiers.py, the package's largest module, is compiled
# before numpy is loaded and not on top of it: a lower peak for every command
from .classifiers import ALGORITHMS, Hyperparams, predict_labels, train
from . import corpus
from .data import (
    _BLOCK_CHARS,
    AttributeSchema,
    Dataset,
    class_counts,
    crosstab,
    parse_csv,
    parse_schema,
    read_blocks,
)
from .errors import DataError, InputError, UsageError
# bound here, like Dataset, because tracing wraps them through cli's namespace
from .model_io import load_model, save_model

EMBEDDED = "embedded:election"


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
        d = Hyperparams()
        p.add_argument("--k", type=int, default=d.knn_k,
                       help="KNN neighbor count (default %(default)s)")
        p.add_argument("--alpha", type=float, default=d.nb_alpha,
                       help="naive Bayes smoothing (default %(default)s)")
        p.add_argument("--min-samples", type=int, default=d.tree_min_samples,
                       help="minimum records to split a tree node (default %(default)s)")
        p.add_argument("--max-depth", type=int, default=d.tree_max_depth,
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


def _load_data(args: argparse.Namespace, labeled: bool | None,
               fallback_schema: AttributeSchema | None = None) -> tuple[Dataset, str]:
    """Load --data/--schema; with ``labeled=None`` the header decides, and
    with ``labeled=True`` the dataset needs at least one record."""
    if args.data == EMBEDDED:
        schema = corpus.load_election_schema()
        text = corpus.election_csv_text()
        source = EMBEDDED
    elif args.data.startswith("embedded:"):
        raise DataError(f"unknown embedded dataset {args.data!r}")
    else:
        if args.schema is not None:
            schema = parse_schema(read_blocks(args.schema, "schema file"))
        elif fallback_schema is not None:
            schema = fallback_schema
        else:
            raise UsageError("--schema is required when --data is a file path")
        text = read_blocks(args.data, "data file")
        source = args.data
    data = parse_csv(text, schema, labeled)
    if labeled and data.n == 0:
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
    if names:  # only a crosstab needs the report module
        from .report import format_count_table
    for name in names:
        print()
        table = crosstab(data, name).tolist()
        values = data.schema.features[data.schema.feature_index(name)].values
        print(f"crosstab: {name}")
        print(format_count_table("", values, data.schema.class_labels, table), end="")
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
    from .report import (check_curve_names, format_confusion_table, format_metrics_table,
                         parse_confusion_table, write_report)

    if args.from_matrix is not None:
        defaults = vars(_build_parser().parse_args(["evaluate"]))
        for flag, value in vars(args).items():
            if flag not in ("from_matrix", "out") and value != defaults[flag]:
                raise UsageError(f"--from-matrix does not take --{flag.replace('_', '-')}")
        matrix = parse_confusion_table(read_blocks(args.from_matrix, "matrix file"))
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

    data, source = _load_data(args, labeled=True)
    if args.out:  # a file-name collision needs only the labels: refuse it before evaluating
        check_curve_names(data.schema.class_labels)
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
    data, _ = _load_data(args, labeled=True)
    model = train(data, args.algo, _hyperparams(args))
    save_model(model, args.out)
    print(f"wrote {args.algo} model to {args.out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    data, _ = _load_data(args, labeled=None, fallback_schema=model.schema)
    proba = model.predict_proba(data)
    winners = predict_labels(proba)
    labels = model.schema.class_labels
    line = "%d\t%s" + "\t%.6f" * len(labels) + "\n"  # labels are arguments: they may hold '%'
    block = _BLOCK_CHARS // 64  # lines formatted and written at a time, about 1,024
    out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out as stream:
        stream.write("index\tprediction\t" + "\t".join(labels) + "\n")
        for start in range(0, len(proba), block):
            stop = start + block
            rows = zip(range(start, stop), winners[start:stop].tolist(), proba[start:stop].tolist())
            stream.write("".join([line % (i, labels[w], *row) for i, w, row in rows]))
    if args.out:
        print(f"wrote predictions to {args.out}")
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
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
