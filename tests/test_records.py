"""The package's record types: construction, validation, immutability,
value equality and ``repr``; and which modules ``import turnout`` loads."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import turnout
from turnout import (
    Attribute,
    AttributeSchema,
    ConfusionMatrix,
    CurveSeries,
    EvaluationReport,
    Hyperparams,
    PerClassMetrics,
    Protocol,
    SchemaError,
    TrainedModel,
    TreeModel,
    load_election_corpus,
    model_from_text,
    model_to_text,
    train,
)
from turnout.classifiers import Algorithm

ROOT = Path(__file__).resolve().parent.parent

A = Attribute("a", ("x", "y"))
T = Attribute("t", ("p", "q"))
SCHEMA = AttributeSchema((A,), T)
MATRIX = ConfusionMatrix(((3, 1), (0, 2)), ("p", "q"))
CURVE = CurveSeries("roc", "p", ((0.0, 0.0), (1.0, 1.0)), 0.5)
METRICS = PerClassMetrics("p", 0.75, 0.75, 1.0, 1.0, 0.75, 0.8, frozenset())
TREE = TreeModel(np.array([-1]), np.array([[-1, -1]]), np.array([[3, 1]]), (2,), 2)

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
    "Algorithm-10": (Algorithm, ("x", len, int), {"name": "x", "train": len, "model": int},
     "Algorithm(name='x', train=<built-in function len>, model=<class 'int'>)"),
    "TrainedModel-11": (TrainedModel, ("tree", SCHEMA, Hyperparams(), TREE),
     {"algorithm": "tree", "schema": SCHEMA, "params": Hyperparams(), "model": TREE},
     "TrainedModel(algorithm='tree', schema=AttributeSchema(features=(Attribute(name='a', "
     "values=('x', 'y')),), target=Attribute(name='t', values=('p', 'q'))), "
     "params=Hyperparams(knn_k=5, nb_alpha=1.0, tree_min_samples=2, tree_max_depth=None), "
     "model=TreeModel(attribute=[-1], children=[[-1, -1]], counts=[[3, 1]], domain_sizes=(2,), "
     "n_classes=2))"),
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
    "EvaluationReport-16": (EvaluationReport, ("knn", Hyperparams(), Protocol("test-on-train"), MATRIX, (METRICS,), (CURVE,)),
     {"algorithm": "knn", "params": Hyperparams(), "protocol": Protocol("test-on-train"),
      "matrix": MATRIX, "per_class": (METRICS,), "curves": (CURVE,)},
     "EvaluationReport(algorithm='knn', params=Hyperparams(knn_k=5, nb_alpha=1.0, "
     "tree_min_samples=2, tree_max_depth=None), protocol=Protocol(kind='test-on-train', "
     "folds=None, seed=None), matrix=ConfusionMatrix(counts=((3, 1), (0, 2)), labels=('p', 'q')), "
     "per_class=(PerClassMetrics(label='p', accuracy=0.75, sensitivity=0.75, specificity=1.0, "
     "precision=1.0, recall=0.75, f1=0.8, undefined=frozenset()),), "
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
    (lambda: Protocol("holdout"), ValueError, "unknown protocol kind 'holdout'"),
    (lambda: Protocol("cv", folds=10), ValueError, "cv protocol needs folds and seed"),
    (lambda: Protocol("cv", seed=1), ValueError, "cv protocol needs folds and seed"),
    (lambda: ConfusionMatrix(((1,),), ("p", "q")), ValueError,
     "confusion matrix must be square with one row per class"),
    (lambda: ConfusionMatrix(((1, 0), (0,)), ("p", "q")), ValueError,
     "confusion matrix must be square with one row per class"),
    (lambda: ConfusionMatrix(((1, 0), (0, -1)), ("p", "q")), ValueError,
     "confusion matrix counts must be non-negative"),
])
def test_validated_records_reject_bad_fields(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_model_classes_reject_assignment():
    data = load_election_corpus()
    knn, nb = train(data, "knn").model, train(data, "naive-bayes").model
    tree = train(data, "tree").model
    for model, name in ((knn, "k"), (knn, "rows"), (nb, "alpha"), (nb, "counts"),
                        (tree, "attribute"), (tree, "counts")):
        with pytest.raises(AttributeError):
            setattr(model, name, getattr(model, name))
    # every model is equal only to itself; a round trip keeps its payload
    for algo, model in (("knn", knn), ("naive-bayes", nb), ("tree", tree)):
        clone = model_from_text(model_to_text(train(data, algo))).model
        assert clone != model and clone.payload() == model.payload()


def _new_modules(statement):
    """Modules that ``statement`` loads in a fresh interpreter, beyond those
    loaded before it runs."""
    code = f"import sys\nbefore = set(sys.modules)\n{statement}\nprint(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(done.stdout.split())


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
