"""Fast self-test of the benchmark runner, kept out of the tier-1 suite.

    python3 bench/selftest.py

Checks that ``run.py`` prints the result schema with exactly the metric
names and units of ``BENCHMARK.json`` in both modes, that the generator is
deterministic and independent of the package, and that the runner fails
without a result when the package sources are missing.  Takes about ten
seconds.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from synth import Corpus  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _check_result(stdout: str, metrics: list[dict]) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name
    return result


def test_benchmark_json_matches_runner_paths() -> None:
    spec = _spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_generator_is_deterministic_and_independent() -> None:
    corpus = Corpus()
    a = corpus.generate(7, "cv", 300, labeled=True)
    assert a == Corpus().generate(7, "cv", 300, labeled=True)
    assert a != corpus.generate(8, "cv", 300, labeled=True)
    assert a != corpus.generate(7, "queries", 300, labeled=True)
    assert len(a.splitlines()) == 301
    tree = ast.parse((BENCH / "synth.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(not n.name.startswith("turnout") for n in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("turnout")


def test_untraced_result_schema() -> None:
    done = _run(ROOT, "--workload", "corpus-cli", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    _check_result(done.stdout, _spec()["end_to_end"])
    detail = json.loads(done.stdout.splitlines()[-2])
    assert detail["ops_failed_frac"] == 0.0
    assert {"commit", "python", "numpy", "nproc", "loadavg_1m_at_start", "seed",
            "inputs"} <= set(detail["provenance"])


def test_traced_result_schema() -> None:
    done = _run(ROOT, "--workload", "corpus-cli", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = _check_result(done.stdout, _spec()["per_layer"])
    assert result["metrics"]["data.revalidation_ratio"]["value"] == 28.0
    assert result["metrics"]["knn.data.revalidation_ratio"]["value"] == 10.0


def test_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
        done = _run(bare, "--workload", "corpus-cli", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == "", done.stdout


def main() -> int:
    (BENCH / "out").mkdir(exist_ok=True)
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
