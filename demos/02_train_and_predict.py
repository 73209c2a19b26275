"""
Training models and predicting records
======================================

Fits all three classifiers on the survey, saves one to a text file,
loads it back, and predicts a few records with class probabilities.
"""

import tempfile
from pathlib import Path

from turnout import load_election_corpus, load_model, predict_label, save_model, train

data = load_election_corpus()

# train one model per algorithm; hyperparameters default to
# k=5, alpha=1.0, and an unpruned tree
models = {algo: train(data, algo) for algo in ("knn", "naive-bayes", "tree")}

# model files are human-readable text; round-tripping is exact
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "nb.model"
    save_model(models["naive-bayes"], path)
    print(f"model file is {path.stat().st_size} bytes of plain text")
    models["naive-bayes"] = load_model(path)

# predict the first three records with every model
labels = data.schema.class_labels
for i in range(3):
    row = data.matrix[i]
    actual = labels[data.label_array[i]]
    print(f"\nrecord {i} (actual: {actual})")
    for algo, model in models.items():
        proba = model.predict_proba_row(row)
        winner = labels[predict_label(proba)]
        cells = ", ".join(f"{label}={p:.3f}" for label, p in zip(labels, proba))
        print(f"  {algo:>11}: {winner}  ({cells})")
