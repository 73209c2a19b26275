"""The package's record types: construction, validation, immutability,
value equality and ``repr``; and which modules ``import turnout`` loads."""

import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import turnout
from turnout import (
    Attribute,
    AttributeSchema,
    ConfusionMatrix,
    CurveSeries,
    Dataset,
    EvaluationReport,
    Hyperparams,
    PerClassMetrics,
    Protocol,
    SchemaError,
    UsageError,
    class_counts,
    crosstab,
    held_out_scores,
    load_election_corpus,
    model_from_text,
    model_to_text,
    stratified_folds,
    train,
)

ROOT = Path(__file__).resolve().parent.parent

A = Attribute("a", ("x", "y"))
T = Attribute("t", ("p", "q"))
SCHEMA = AttributeSchema((A,), T)
MATRIX = ConfusionMatrix(((3, 1), (0, 2)), ("p", "q"))
CURVE = CurveSeries("roc", "p", ((0.0, 0.0), (1.0, 1.0)), 0.5)

# id: (type, positional arguments, the same as keywords, exact repr); the ids
# are fixed, so removing a case leaves the others' ids as they were
CASES = {
    "Attribute-0": (Attribute, ("a", ("x", "y")), {"name": "a", "values": ("x", "y")},
     "Attribute(name='a', values=('x', 'y'))"),
    "AttributeSchema-1": (AttributeSchema, ((A,), T), {"features": (A,), "target": T},
     "AttributeSchema(features=(Attribute(name='a', values=('x', 'y')),), "
     "target=Attribute(name='t', values=('p', 'q')))"),
    "Hyperparams-2": (Hyperparams, (), {},
     "Hyperparams(knn_k=5, nb_alpha=1.0, tree_min_samples=2, tree_max_depth=None)"),
    "Hyperparams-3": (Hyperparams, (3, 0.5, 4, 2),
     {"knn_k": 3, "nb_alpha": 0.5, "tree_min_samples": 4, "tree_max_depth": 2},
     "Hyperparams(knn_k=3, nb_alpha=0.5, tree_min_samples=4, tree_max_depth=2)"),
    "Protocol-4": (Protocol, ("test-on-train",), {"kind": "test-on-train"},
     "Protocol(kind='test-on-train', folds=None, seed=None)"),
    "Protocol-5": (Protocol, ("cv", 10, 42), {"kind": "cv", "folds": 10, "seed": 42},
     "Protocol(kind='cv', folds=10, seed=42)"),
    "ConfusionMatrix-6": (ConfusionMatrix, (((3, 1), (0, 2)), ("p", "q")),
     {"counts": ((3, 1), (0, 2)), "labels": ("p", "q")},
     "ConfusionMatrix(counts=((3, 1), (0, 2)), labels=('p', 'q'))"),
    "PerClassMetrics-13": (PerClassMetrics, ("p", 0.75, 0.75, 1.0, 1.0, 0.75, 0.8, frozenset()),
     {"label": "p", "accuracy": 0.75, "sensitivity": 0.75, "specificity": 1.0,
      "precision": 1.0, "recall": 0.75, "f1": 0.8, "undefined": frozenset()},
     "PerClassMetrics(label='p', accuracy=0.75, sensitivity=0.75, specificity=1.0, "
     "precision=1.0, recall=0.75, f1=0.8, undefined=frozenset())"),
    "CurveSeries-14": (CurveSeries, ("lift", "p", ((1.0, 1.0),)),
     {"kind": "lift", "label": "p", "points": ((1.0, 1.0),)},
     "CurveSeries(kind='lift', label='p', points=((1.0, 1.0),), auc=None)"),
    "CurveSeries-15": (CurveSeries, ("roc", "p", ((0.0, 0.0), (1.0, 1.0)), 0.5),
     {"kind": "roc", "label": "p", "points": ((0.0, 0.0), (1.0, 1.0)), "auc": 0.5},
     "CurveSeries(kind='roc', label='p', points=((0.0, 0.0), (1.0, 1.0)), auc=0.5)"),
    "EvaluationReport-16": (EvaluationReport, ("knn", Hyperparams(), Protocol("test-on-train"), MATRIX, (CURVE,)),
     {"algorithm": "knn", "params": Hyperparams(), "protocol": Protocol("test-on-train"),
      "matrix": MATRIX, "curves": (CURVE,)},
     "EvaluationReport(algorithm='knn', params=Hyperparams(knn_k=5, nb_alpha=1.0, "
     "tree_min_samples=2, tree_max_depth=None), protocol=Protocol(kind='test-on-train', "
     "folds=None, seed=None), matrix=ConfusionMatrix(counts=((3, 1), (0, 2)), labels=('p', 'q')), "
     "curves=(CurveSeries(kind='roc', label='p', points=((0.0, 0.0), (1.0, 1.0)), auc=0.5),))"),
}


@pytest.mark.parametrize("cls, args, kwargs, text", CASES.values(), ids=CASES.keys())
def test_record_construction_equality_and_repr(cls, args, kwargs, text):
    record = cls(*args)
    same = cls(**kwargs)
    assert type(record) is type(same) is cls
    assert all(getattr(record, field) == value for field, value in kwargs.items())
    assert record == same and hash(record) == hash(same)
    assert repr(record) == repr(same) == text
    # a record is also a tuple, equal to the tuple of its field values
    assert record == tuple(getattr(record, field) for field in cls._fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


# fixed ids, as for CASES
DIFFERING = {
    "Attribute-a0-b0": (Attribute, ("a", ("x", "y")), ("a", ("y", "x"))),
    "Hyperparams-a1-b1": (Hyperparams, (5,), (6,)),
    "Protocol-a2-b2": (Protocol, ("cv", 10, 1), ("cv", 10, 2)),
    "ConfusionMatrix-a3-b3": (ConfusionMatrix, (((1,),), ("p",)), (((2,),), ("p",))),
    "CurveSeries-a5-b5": (CurveSeries, ("roc", "p", ()), ("roc", "p", (), 0.5)),
}


@pytest.mark.parametrize("cls, a, b", DIFFERING.values(), ids=DIFFERING.keys())
def test_records_differing_in_a_field_are_unequal(cls, a, b):
    assert cls(*a) != cls(*b)


def test_record_defaults():
    assert Hyperparams() == Hyperparams(5, 1.0, 2, None)
    assert Hyperparams(knn_k=3) == Hyperparams(3, 1.0, 2, None)
    assert Protocol("test-on-train") == Protocol("test-on-train", None, None)
    assert CurveSeries("lift", "p", ()).auc is None


@pytest.mark.parametrize("build, error, message", [
    (lambda: Attribute("", ("x", "y")), SchemaError, "attribute name must be nonempty"),
    (lambda: Attribute("a,b", ("x", "y")), SchemaError, "attribute name 'a,b' may not contain ',' or '|'"),
    (lambda: Attribute("a|b", ("x", "y")), SchemaError, "attribute name 'a|b' may not contain ',' or '|'"),
    (lambda: Attribute("a", ("x",)), SchemaError, "attribute 'a' needs at least 2 domain labels, got 1"),
    (lambda: Attribute("a", ("x", "")), SchemaError, "attribute 'a' has an empty domain label"),
    (lambda: Attribute("a", ("x", "y|z")), SchemaError, "label 'y|z' may not contain ',' or '|'"),
    (lambda: Attribute("a", ("x", "x")), SchemaError, "attribute 'a' has duplicate domain labels"),
    (lambda: AttributeSchema((), T), SchemaError, "schema needs at least one feature attribute"),
    (lambda: AttributeSchema((A, A), T), SchemaError, "duplicate feature attribute names"),
    (lambda: AttributeSchema((A,), Attribute("a", ("p", "q"))), SchemaError,
     "target 'a' is also a feature attribute"),
    (lambda: Hyperparams(knn_k=0), ValueError, "knn_k must be >= 1, got 0"),
    (lambda: Hyperparams(nb_alpha=-1.0), ValueError, "nb_alpha (alpha) must be finite and >= 0, got -1.0"),
    (lambda: Hyperparams(nb_alpha=math.nan), ValueError, "nb_alpha (alpha) must be finite and >= 0, got nan"),
    (lambda: Hyperparams(nb_alpha=math.inf), ValueError, "nb_alpha (alpha) must be finite and >= 0, got inf"),
    (lambda: Hyperparams(tree_min_samples=1), ValueError, "tree_min_samples must be >= 2, got 1"),
    (lambda: Hyperparams(tree_max_depth=-1), ValueError, "tree_max_depth must be >= 0, got -1"),
    # a float or bool would train, then fail to predict or to load as saved
    (lambda: Hyperparams(knn_k=2.5), ValueError, "knn_k must be an integer, got 2.5"),
    (lambda: Hyperparams(knn_k=True), ValueError, "knn_k must be an integer, got True"),
    (lambda: Hyperparams(tree_min_samples=2.0), ValueError,
     "tree_min_samples must be an integer, got 2.0"),
    (lambda: Hyperparams(tree_max_depth=1.5), ValueError, "tree_max_depth must be an integer, got 1.5"),
    (lambda: Protocol("holdout"), ValueError, "unknown protocol kind 'holdout'"),
    (lambda: Protocol("cv", folds=10), ValueError, "cv protocol needs folds and seed"),
    (lambda: Protocol("cv", seed=1), ValueError, "cv protocol needs folds and seed"),
    # test-on-train would evaluate exactly as the bare protocol, yet compare unequal
    (lambda: Protocol("test-on-train", 5, 3), ValueError, "test-on-train protocol takes no folds or seed"),
    (lambda: Protocol("test-on-train", folds=5), ValueError, "test-on-train protocol takes no folds or seed"),
    (lambda: Protocol("test-on-train", seed=3), ValueError, "test-on-train protocol takes no folds or seed"),
    (lambda: ConfusionMatrix(((1,),), ("p", "q")), ValueError,
     "confusion matrix must be square with one row per class"),
    (lambda: ConfusionMatrix(((1, 0), (0,)), ("p", "q")), ValueError,
     "confusion matrix must be square with one row per class"),
    (lambda: ConfusionMatrix(((1, 0), (0, -1)), ("p", "q")), ValueError,
     "confusion matrix counts must be non-negative"),
    # a metrics row could not say which class it is
    (lambda: ConfusionMatrix(((1, 0), (0, 1)), ("p", "p")), ValueError,
     "confusion matrix class labels must be distinct and nonempty"),
    (lambda: ConfusionMatrix(((1, 0), (0, 1)), ("p", "")), ValueError,
     "confusion matrix class labels must be distinct and nonempty"),
])
def test_validated_records_reject_bad_fields(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


UNLABELED = Dataset(SCHEMA, ((0,), (1,)), None)
EMPTY = Dataset(SCHEMA, (), ())


def _corpus_folds(folds, seed):
    return stratified_folds(load_election_corpus(), folds, seed)


USAGE_CHECKS = {
    "integer": (lambda: Hyperparams(knn_k=2.5), "knn_k must be an integer, got 2.5"),
    "hyperparams": (lambda: Hyperparams(knn_k=0), "knn_k must be >= 1, got 0"),
    "protocol": (lambda: Protocol("holdout"), "unknown protocol kind 'holdout'"),
    # a "2.5-fold" protocol described itself as such, and dealt into fold 2
    "protocol-folds": (lambda: Protocol("cv", 2.5, 1), "folds must be an integer, got 2.5"),
    "protocol-seed": (lambda: Protocol("cv", 10, True), "seed must be an integer, got True"),
    # each built, and described itself as "stratified 1-fold cross-validation (seed -1)"
    "protocol-folds-range": (lambda: Protocol("cv", 1, 0), "folds must be >= 2, got 1"),
    "protocol-seed-range": (lambda: Protocol("cv", 10, -1), "seed must be >= 0, got -1"),
    "folds-unlabeled": (lambda: stratified_folds(UNLABELED, 2, 0),
                        "stratified folds need a labeled dataset"),
    "folds-empty": (lambda: stratified_folds(EMPTY, 2, 0),
                    "the dataset has no records; stratified folds need at least one"),
    "folds-range": (lambda: _corpus_folds(101, 0), "folds must be between 2 and 100, got 101"),
    "folds-one": (lambda: _corpus_folds(1, 0), "folds must be >= 2, got 1"),
    "folds-float": (lambda: _corpus_folds(2.5, 1), "folds must be an integer, got 2.5"),
    "folds-seed": (lambda: _corpus_folds(10, -1), "seed must be >= 0, got -1"),
    # each was a bare TypeError, and True dealt as seed 1
    "folds-seed-float": (lambda: _corpus_folds(10, 1.5), "seed must be an integer, got 1.5"),
    "folds-seed-str": (lambda: _corpus_folds(10, "3"), "seed must be an integer, got '3'"),
    "folds-seed-bool": (lambda: _corpus_folds(10, True), "seed must be an integer, got True"),
    "scores-unlabeled": (lambda: held_out_scores(UNLABELED, "knn"), "evaluation needs a labeled dataset"),
    "train-algorithm": (lambda: train(load_election_corpus(), "svm"),
                        "unknown algorithm 'svm'; expected one of ('knn', 'naive-bayes', 'tree')"),
    "train-unlabeled": (lambda: train(UNLABELED, "knn"), "training needs a labeled dataset"),
    "feature-index": (lambda: SCHEMA.feature_index("b"), "unknown attribute 'b'"),
    "crosstab-unlabeled": (lambda: crosstab(UNLABELED, "a"), "crosstab needs a labeled dataset"),
    "crosstab-target": (lambda: crosstab(Dataset(SCHEMA, ((0,),), (0,)), "t"),
                        "crosstab is taken against the target; pass a feature attribute"),
    "class-counts": (lambda: class_counts(UNLABELED), "class counts need a labeled dataset"),
}


@pytest.mark.parametrize("call, message", USAGE_CHECKS.values(), ids=USAGE_CHECKS.keys())
def test_argument_checks_raise_usage_error(call, message):
    # the CLI's exit 1; any other ValueError that reaches it is a bug (exit 3)
    with pytest.raises(UsageError) as caught:
        call()
    assert str(caught.value) == message


def test_model_classes_reject_assignment():
    data = load_election_corpus()
    tables = {"knn": ("rows", "labels"), "naive-bayes": ("class_counts", "counts"),
              "tree": ("attribute", "children", "counts")}
    for algo, names in tables.items():
        model = train(data, algo)
        for name in ("schema", "params", "domain_sizes", *names):
            value = getattr(model, name)
            with pytest.raises(AttributeError, match=f"is immutable; cannot set {name!r}"):
                setattr(model, name, value)
        with pytest.raises(AttributeError, match="is immutable"):
            model.extra = 1
        # every model is equal only to itself; a round trip keeps its payload
        clone = model_from_text(model_to_text(model))
        assert type(clone) is type(model) and clone != model
        assert clone.payload() == model.payload()


def _new_modules(statement):
    """Modules that ``statement`` loads in a fresh interpreter, beyond those
    loaded before it runs; what the statement prints is ignored."""
    code = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(done.stdout.splitlines()[-1].split())


def _package_modules(statement):
    """The ``turnout`` submodules and whether numpy ``statement`` loads."""
    loaded = _new_modules(statement)
    return {m for m in loaded if m.startswith("turnout.")}, "numpy" in loaded


def test_import_loads_no_dataclasses_thread_pool_or_hashlib():
    cli = _new_modules("import turnout.cli")
    assert "turnout.cli" in cli
    assert not {"dataclasses", "concurrent.futures", "logging"} & cli
    package = _new_modules("import turnout")
    assert "turnout" in package
    assert not {"dataclasses", "concurrent.futures", "logging", "hashlib"} & package


def test_all_lists_every_public_name_and_each_resolves():
    missing = [name for name in turnout.__all__ if not hasattr(turnout, name)]
    assert not missing, f"__all__ names what turnout does not define: {missing}"
    public = {name for name, value in vars(turnout).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(turnout.__all__)
    assert len(turnout.__all__) == len(public)


def test_import_turnout_loads_no_submodule_and_a_name_loads_only_its_own():
    assert _package_modules("import turnout") == (set(), False)
    assert _package_modules("import turnout; turnout.parse_schema") == (
        {"turnout.data", "turnout.errors"}, True)


def test_only_evaluate_loads_evaluation_and_report(tmp_path):
    model = tmp_path / "knn.model"
    run = "from turnout.cli import main; assert main({!r}) == 0"
    train_argv = ["train", "--algo", "knn", "--out", str(model)]
    for argv in (train_argv, ["predict", str(model)], ["validate"]):
        loaded, _ = _package_modules(run.format(argv))
        assert "turnout.classifiers" in loaded
        assert not {"turnout.evaluation", "turnout.report"} & loaded
    # validate prints its crosstabs with the report module's count-table writer
    for argv in (["evaluate", "--algo", "knn", "--seed", "1"], ["validate", "--attribute", "Age"]):
        loaded, _ = _package_modules(run.format(argv))
        assert {"turnout.evaluation", "turnout.report"} <= loaded


def test_no_command_loads_numpy_ma_or_openssl(tmp_path):
    # the first np.unique on integers imports numpy.ma, which costs the
    # corpus run about a tenth of its wall time; hashlib loads OpenSSL,
    # about 3.5 MB and 5 ms, where the model fingerprint needs one short
    # digest.  All nine invocations run in one interpreter, so none may load either
    argvs = [argv for algo in ("knn", "naive-bayes", "tree")
             for argv in (["train", "--algo", algo, "--out", str(tmp_path / algo)],
                          ["predict", str(tmp_path / algo)])]
    argvs += [["evaluate", "--algo", "all", "--seed", "1"], ["validate", "--attribute", "Age"],
              ["export-corpus", "--out", str(tmp_path / "corpus")]]
    run = "from turnout.cli import main\n" + "\n".join(f"assert main({argv!r}) == 0" for argv in argvs)
    loaded = _new_modules(run)
    assert {"turnout.evaluation", "turnout.model_io", "turnout.sha256", "numpy"} <= loaded
    assert not {"numpy.ma", "hashlib", "_hashlib", "_blake2"} & loaded


def test_evaluate_loads_neither_numpy_random_nor_openssl():
    # the fold deal is drawn in-package: numpy.random would bring secrets,
    # hashlib and OpenSSL, about 6 MB and 15 ms, for a few thousand draws
    argv = ["evaluate", "--algo", "all", "--seed", "1"]
    loaded = _new_modules(f"from turnout.cli import main\nassert main({argv!r}) == 0")
    assert "turnout.evaluation" in loaded and "numpy" in loaded
    assert not {"numpy.random", "secrets", "hashlib", "_hashlib"} & loaded


def test_each_public_name_is_the_object_its_module_defines():
    for name, module_name in turnout._EXPORTS.items():
        module = importlib.import_module(f"turnout.{module_name}")
        value = getattr(turnout, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__
    assert set(turnout.__all__) <= set(dir(turnout))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'turnout' has no attribute 'no_such_name'$"):
        turnout.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from turnout import no_such_name  # noqa: F401


def test_cli_binds_what_tracing_wraps_through_its_namespace():
    import turnout.cli
    assert turnout.cli.load_model is turnout.load_model
    assert turnout.cli.save_model is turnout.save_model
    assert turnout.cli.Dataset is turnout.Dataset
