"""The benchmark's span tracer wraps turnout's calls from outside the
package (``bench/spans.py``), by module attribute.  A refactor that drops
one of the bindings it patches should fail here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

from turnout import cli


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_records_each_layer_and_restores_every_binding(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tracer = _load_tracer()()
    tracer.install()
    patched = list(tracer._patched)
    try:
        code = cli.main(["evaluate", "--algo", "knn", "--seed", "1", "--folds", "3"])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    names = {span[0] for span in tracer.spans}
    assert {"evaluation.evaluate", "evaluation.stratified_folds", "classifiers.train"} <= names
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left wrapped"
