"""Every benchmark workload at its default seed writes exactly the files
recorded in ``bench/reference_digests.json``.  The benchmark checks these
digests too, but only when it runs; here each supported Python and numpy
checks them, in-process through ``cli.main``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from turnout import cli

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up in sys.modules;
    # it puts bench/ on sys.path, taken off again afterwards
    path = list(sys.path)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]
        sys.path[:] = path


@pytest.mark.parametrize("name", ["corpus-cli", "synth-cv", "synth-score"])
def test_workload_outputs_match_the_reference_digests(bench, name, tmp_path, monkeypatch, capsys):
    seed = bench.DEFAULT_SEED
    wl = bench.workload(name, seed)
    bench.write_inputs(wl, seed, tmp_path)
    (tmp_path / "op").mkdir()
    monkeypatch.chdir(tmp_path)
    for inv in wl.invocations:
        assert cli.main(list(inv.argv)) == 0, (inv.name, capsys.readouterr().err)
    assert bench.digest_tree(Path("op")) == bench.load_reference(name)
