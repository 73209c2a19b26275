"""The benchmark's span tracer wraps turnout's calls from outside the
package (``bench/spans.py``), by module attribute.  A refactor that drops
one of the bindings it patches should fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from turnout import ALGORITHMS, cli


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _traced(capsys, *argvs):
    """The span names the tracer records while ``cli.main`` runs each argv;
    every patched binding must be put back afterwards."""
    tracer = _load_tracer()()
    tracer.install()
    patched = list(tracer._patched)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(argvs), capsys.readouterr().err
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left wrapped"
    return {span[0] for span in tracer.spans}


def test_tracer_records_each_layer_and_restores_every_binding(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    names = _traced(capsys, ["evaluate", "--algo", "knn", "--seed", "1", "--folds", "3"])
    assert {"evaluation.evaluate", "evaluation.stratified_folds", "classifiers.train"} <= names


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_tracer_records_train_save_load_and_predict(tmp_path, monkeypatch, capsys, algo):
    monkeypatch.chdir(tmp_path)
    names = _traced(capsys, ["train", "--algo", algo, "--out", "m.model"],
                    ["predict", "m.model", "--out", "predictions.tsv"])
    assert {"classifiers.train", "classifiers.TrainedModel.predict_proba",
            "model_io.save_model", "model_io.load_model"} <= names
