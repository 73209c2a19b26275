"""Categorical classification toolkit for election-participation surveys.

Three classifiers (k-nearest-neighbors, naive Bayes, and an unpruned
information-gain tree) over purely categorical records, with stratified
cross-validation, confusion-matrix metrics, and ROC / lift / calibration
curves.  A 100-record survey corpus ships with the package.
"""

from .classifiers import (
    ALGORITHMS,
    Hyperparams,
    KnnModel,
    NaiveBayesModel,
    TrainedModel,
    TreeModel,
    entropy,
    info_gain,
    predict_label,
    predict_labels,
    train,
    train_knn,
    train_naive_bayes,
    train_tree,
)
from .corpus import (
    REFERENCE_TREE_ROOT,
    election_csv_text,
    election_schema_text,
    load_election_corpus,
    load_election_schema,
)
from .data import (
    Attribute,
    AttributeSchema,
    Dataset,
    canonical_label,
    class_counts,
    crosstab,
    dataset_to_csv,
    parse_csv,
    parse_schema,
)
from .errors import (
    DataError,
    InputError,
    ModelFileError,
    SchemaError,
    SchemaMismatchError,
)
from .evaluation import (
    ConfusionMatrix,
    CurveSeries,
    EvaluationReport,
    PerClassMetrics,
    Protocol,
    calibration_points,
    class_accuracy,
    cross_validate,
    evaluate,
    lift_points,
    majority_baseline,
    per_class_metrics,
    roc_points,
    stratified_folds,
    test_on_train,
)
from .model_io import load_model, model_from_text, model_to_text, save_model

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Attribute",
    "AttributeSchema",
    "ConfusionMatrix",
    "CurveSeries",
    "DataError",
    "Dataset",
    "EvaluationReport",
    "Hyperparams",
    "InputError",
    "KnnModel",
    "ModelFileError",
    "NaiveBayesModel",
    "PerClassMetrics",
    "Protocol",
    "REFERENCE_TREE_ROOT",
    "SchemaError",
    "SchemaMismatchError",
    "TrainedModel",
    "TreeModel",
    "calibration_points",
    "canonical_label",
    "class_accuracy",
    "class_counts",
    "cross_validate",
    "crosstab",
    "dataset_to_csv",
    "election_csv_text",
    "election_schema_text",
    "entropy",
    "evaluate",
    "info_gain",
    "lift_points",
    "load_election_corpus",
    "load_election_schema",
    "load_model",
    "majority_baseline",
    "model_from_text",
    "model_to_text",
    "parse_csv",
    "parse_schema",
    "per_class_metrics",
    "predict_label",
    "predict_labels",
    "roc_points",
    "save_model",
    "stratified_folds",
    "test_on_train",
    "train",
    "train_knn",
    "train_naive_bayes",
    "train_tree",
]
