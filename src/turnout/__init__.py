"""Categorical classification toolkit for election-participation surveys.

Three classifiers (k-nearest-neighbors, naive Bayes, and an unpruned
information-gain tree) over purely categorical records, with stratified
cross-validation, confusion-matrix metrics, and ROC / lift / calibration
curves.  A 100-record survey corpus ships with the package.

``import turnout`` loads no submodule: each public name loads its module
the first time it is read (PEP 562), and is then a plain package global.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "classifiers": "ALGORITHMS Hyperparams KnnModel NaiveBayesModel TrainedModel TreeModel"
                       " predict_label predict_labels train train_knn train_naive_bayes train_tree",
        "corpus": "REFERENCE_TREE_ROOT election_csv_text election_schema_text"
                  " load_election_corpus load_election_schema",
        "data": "Attribute AttributeSchema Dataset canonical_label class_counts crosstab"
                " dataset_to_csv parse_csv parse_schema",
        "errors": "DataError InputError ModelFileError SchemaError SchemaMismatchError",
        "evaluation": "ConfusionMatrix CurveSeries EvaluationReport PerClassMetrics Protocol"
                      " calibration_points class_accuracy evaluate held_out_scores lift_points"
                      " majority_baseline per_class_metrics roc_points stratified_folds",
        "model_io": "load_model model_from_text model_to_text save_model",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
