"""
Stratified cross-validation and per-class metrics
=================================================

Runs seeded 10-fold cross-validation for each algorithm and prints the
pooled confusion matrix and metric table, next to the majority-class
baseline every model has to beat.
"""

from turnout import Protocol, class_accuracy, evaluate, load_election_corpus, majority_baseline
from turnout.report import format_confusion_table, format_metrics_table

data = load_election_corpus()

# always predicting "Partnership" is right 84% of the time; that is the
# bar any classifier must clear on this skewed corpus
print(f"majority baseline: {majority_baseline(data):.4f}")

# the seed fixes the fold shuffle, so these numbers are reproducible
protocol = Protocol(kind="cv", folds=10, seed=42)
for algo in ("knn", "naive-bayes", "tree"):
    matrix = evaluate(data, algo, protocol=protocol).matrix
    print(f"\n=== {algo}: CA {class_accuracy(matrix):.4f} ===")
    print(format_confusion_table(matrix), end="")
    print(format_metrics_table(matrix), end="")
