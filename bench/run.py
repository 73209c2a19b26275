"""Benchmark of the turnout CLI: three workloads, closed loop, one client.

    python3 bench/run.py --workload {corpus-cli,synth-cv,synth-score}
                         [--seed 42] [--seconds 40] [--trace 0|1]

Run from the root of a source checkout; the package is run from ``src/``
with ``python3 -m turnout`` (the ``turnout`` console script runs the same
entry point).  Each operation spawns one CLI process per invocation, waits
for it, then starts the next; every invocation passes ``--jobs 1`` where the
command takes it.  Operations repeat until ``--seconds`` have passed.

With ``--trace 0`` the run times the child processes, scales each time to a
reference speed (see ``_REFERENCE``) and prints the end-to-end metrics.
With ``--trace 1`` it replays the same operations in this process through
``turnout.cli.main(argv)``, with and without span wrappers (see
``spans.py``), and prints the per-layer metrics.

Outputs are checked after every operation: exit code 0, byte-identical
files across operations, the reference digests in
``reference_digests.json`` at the default seed, and, on ``synth-score``, a
sample of predictions against the independent implementations in
``tests/oracles.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds every statistic with its sample count and the run's
provenance, which is also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "reference_digests.json"
sys.path.insert(0, str(BENCH))

from synth import Corpus  # noqa: E402
from spans import ALGOS, Tracer, layer_metrics, per_layer_names  # noqa: E402

DEFAULT_SEED = 42
CHILD_TIMEOUT_S = 120.0
MIN_OPS = 2
# Wall time of one reference child (``_REFERENCE``) on the machine the benchmark
# was defined on: 2 vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 0.25
REFERENCE_EVERY_S = 1.0  # before an invocation, when this long has passed since the last one
IMPORT_REPEATS = 5
ORACLE_SAMPLE = 25


# ------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Invocation:
    name: str  # unique within an operation
    group: str  # "all", or the algorithm whose <algo>.wall_s it feeds
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Input:
    filename: str
    stream: str
    rows: int
    labeled: bool


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    invocations: tuple[Invocation, ...]
    wall_groups: tuple[str, ...]  # invocation groups whose times add up to wall_s

    @property
    def setup_inputs(self) -> list[list]:
        return [[f"inputs/{i.filename}", i.labeled] for i in self.inputs]


def _evaluate(algo: str, seed: int, *extra: str) -> tuple[str, ...]:
    return ("evaluate", "--algo", algo, "--seed", str(seed), "--jobs", "1", *extra,
            "--out", f"op/{algo}")


def workload(name: str, seed: int) -> Workload:
    """The operation a workload repeats; see README.md for why each exists."""
    data = ("--data", "inputs/synth.csv", "--schema", "inputs/election.schema")
    if name == "corpus-cli":
        return Workload(
            name=name,
            inputs=(),
            invocations=tuple(
                Invocation(algo, algo, _evaluate(algo, seed, "--svg"))
                for algo in ("all",) + ALGOS
            ),
            wall_groups=("all",),
        )
    if name == "synth-cv":
        return Workload(
            name=name,
            inputs=(Input("synth.csv", "cv", 5000, True),),
            invocations=tuple(Invocation(a, a, _evaluate(a, seed, *data)) for a in ALGOS),
            wall_groups=ALGOS,
        )
    if name == "synth-score":
        invocations = []
        for a in ALGOS:
            invocations.append(Invocation(f"{a}.train", a, (
                "train", "--algo", a, "--data", "inputs/train.csv",
                "--schema", "inputs/election.schema", "--out", f"op/{a}.model")))
            invocations.append(Invocation(f"{a}.predict", a, (
                "predict", f"op/{a}.model", "--data", "inputs/queries.csv",
                "--out", f"op/{a}.predictions.tsv")))
        return Workload(
            name=name,
            inputs=(Input("train.csv", "train", 1000, True),
                    Input("queries.csv", "queries", 10000, False)),
            invocations=tuple(invocations),
            wall_groups=ALGOS,
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus-cli", "synth-cv", "synth-score")


def write_inputs(wl: Workload, seed: int, workdir: Path) -> dict[str, dict]:
    """Generate the workload's files under ``workdir/inputs``; returns their sizes."""
    corpus = Corpus(SRC / "turnout" / "corpus_data")
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    (inputs / "election.schema").write_text(corpus.schema_text, encoding="utf-8")
    sizes = {}
    for spec in wl.inputs:
        text = corpus.generate(seed, spec.stream, spec.rows, spec.labeled)
        (inputs / spec.filename).write_text(text, encoding="utf-8")
        sizes[spec.filename] = {"rows": spec.rows, "labeled": spec.labeled, "bytes": len(text)}
    return sizes


# ------------------------------------------------------------ processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    stderr: str


def spawn(argv: list[str], cwd: Path, env: dict[str, str]) -> ChildResult:
    """Run one child to completion; wall time and peak RSS from ``wait4``."""
    err_path = cwd / "child.stderr"
    with err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                       err_path.read_text(encoding="utf-8", errors="replace"))


_SETUP_PROBE = """\
import json, sys, time
import turnout
inputs = json.loads(sys.argv[1])
if inputs:
    with open("inputs/election.schema", encoding="utf-8") as f:
        schema = turnout.parse_schema(f.read())
    for path, labeled in inputs:
        with open(path, encoding="utf-8") as f:
            turnout.parse_csv(f.read(), schema, labeled=labeled)
else:
    schema = turnout.parse_schema(turnout.election_schema_text())
    turnout.parse_csv(turnout.election_csv_text(), schema, labeled=True)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

_IMPORT_PROBE = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import turnout
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


# A fixed piece of interpreter start, numpy import, bytecode and array work that
# shares no code with turnout.  The host's speed drifts by tens of percent
# over minutes; reference children run between the invocations slow down with
# it, so the ratio of the two stays steady.
_REFERENCE = """\
import numpy as np
s = 0
for i in range(150000):
    s += i * i % 7
a = np.arange(2_000_000)
for _ in range(2):
    int((a % 7 == 3).sum())
"""


def reference_time(workdir: Path, env: dict[str, str]) -> float:
    ref = spawn([sys.executable, "-c", _REFERENCE], workdir, env)
    if ref.exit_code != 0:
        raise RuntimeError(f"reference child failed: {ref.stderr}")
    return ref.wall_s


def probe(code: str, args: list[str], cwd: Path, env: dict[str, str]) -> tuple[float, str]:
    """Run a short Python child; returns (monotonic start, its stdout)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return start, done.stdout


def setup_time(wl: Workload, workdir: Path, env: dict[str, str]) -> float:
    """Fresh interpreter to parsed ``Dataset``."""
    start, out = probe(_SETUP_PROBE, [json.dumps(wl.setup_inputs)], workdir, env)
    return float(out) - start


def import_times(workdir: Path, env: dict[str, str]) -> tuple[list[float], list[float]]:
    numpy_s, turnout_s = [], []
    for i in range(IMPORT_REPEATS + 1):
        _, out = probe(_IMPORT_PROBE, [], workdir, env)
        if i:
            a, b = out.split()
            numpy_s.append(float(a))
            turnout_s.append(float(b))
    return numpy_s, turnout_s


# --------------------------------------------------------------- checks


def digest_tree(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def load_reference(name: str) -> dict[str, str] | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(name)


def record_reference(name: str, digests: dict[str, str]) -> None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    table[name] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _read_rows(path: Path, corpus: Corpus, labeled: bool) -> tuple[list[list[int]], list[int]]:
    domains = [values for _, values in corpus.features]
    rows, labels = [], []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        rows.append([d.index(c) for d, c in zip(domains, cells)])
        if labeled:
            labels.append(corpus.class_labels.index(cells[-1]))
    return rows, labels


def oracle_check(workdir: Path, seed: int) -> list[str]:
    """Compare sampled knn and naive-bayes predictions with tests/oracles.py."""
    for path in (ROOT / "tests", SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import oracles

    corpus = Corpus(SRC / "turnout" / "corpus_data")
    rows, labels = _read_rows(workdir / "inputs" / "train.csv", corpus, True)
    queries, _ = _read_rows(workdir / "inputs" / "queries.csv", corpus, False)
    sizes = [len(values) for _, values in corpus.features]
    k = len(corpus.class_labels)
    oracle = {
        "knn": lambda q: oracles.knn_proba(rows, labels, k, 5, q),
        "naive-bayes": lambda q: oracles.nb_proba(rows, labels, sizes, k, Fraction(1), q),
    }
    sample = random.Random(f"turnout-bench-check:{seed}").sample(range(len(queries)), ORACLE_SAMPLE)
    problems = []
    for algo, proba in oracle.items():
        lines = (workdir / "op" / f"{algo}.predictions.tsv").read_text(encoding="utf-8").splitlines()
        if len(lines) != len(queries) + 1:
            problems.append(f"{algo}: {len(lines) - 1} predictions for {len(queries)} queries")
            continue
        for i in sample:
            cells = lines[i + 1].split("\t")
            want = proba(queries[i])
            winner = corpus.class_labels[max(range(k), key=lambda c: (want[c], -c))]
            got = [float(v) for v in cells[2:]]
            if cells[:2] != [str(i), winner] or any(
                abs(g - float(w)) > 1e-6 for g, w in zip(got, want)
            ) or len(got) != k:
                problems.append(f"{algo}: record {i} predicted {cells[1:]}, oracle {winner} "
                                f"{[float(w) for w in want]}")
    return problems


@dataclass
class Checker:
    """Counts failed operations against the expected output digests.

    At the default seed the expected digests are the recorded reference;
    at any other seed they are those of the run's first operation.
    """

    name: str
    seed: int
    record: bool
    expected: dict[str, str] | None = None
    problems: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.seed == DEFAULT_SEED and not self.record:
            self.expected = load_reference(self.name) or {}

    def check(self, op: int, exit_codes: dict[str, int], stderr: dict[str, str],
              outdir: Path) -> bool:
        ok = True
        for inv, code in exit_codes.items():
            if code != 0:
                ok = False
                self.problems.append(f"op {op} {inv}: exit {code}: {stderr.get(inv, '')[-300:]}")
        digests = digest_tree(outdir)
        if self.expected is None:
            self.expected = digests
            if self.record:
                record_reference(self.name, digests)
        elif digests != self.expected:
            ok = False
            source = "the reference digests" if self.seed == DEFAULT_SEED else "operation 0"
            self.problems.append(f"op {op}: outputs differ from {source}")
        return ok


# ---------------------------------------------------------------- stats


def summarize(values: list[float]) -> dict:
    """Median, plus the highest of p99/p95/p90/p75/p50 with >= 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for p in (99, 95, 90, 75, 50):
        rank = -(-p * n // 100)  # nearest rank
        if n - rank >= 10:
            out[f"p{p}"] = ordered[rank - 1]
            break
    return out


def provenance(seed: int, sizes: dict, load1: float) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_at_start": load1,
        "seed": seed,
        "inputs": sizes,
    }


def _commit() -> str | None:
    """HEAD of the checkout's own git repository, if it is one."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "turnout").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ runs


def run_untraced(wl: Workload, seconds: float, workdir: Path,
                 checker: Checker) -> tuple[dict, int, int, dict]:
    env = child_env()
    setup_time(wl, workdir, env)  # warm-up: the first child also compiles bytecode
    timed = ["setup_s", "wall_s"] + [f"{algo}.wall_s" for algo in ALGOS]
    refs = [reference_time(workdir, env)]
    last_ref = time.perf_counter()
    ops: list[list[tuple[str, float, int]]] = []  # per operation: (metric, seconds, last reference)
    rss: list[float] = []
    attempted = failed = 0
    begin = time.perf_counter()
    last = 0.0
    while attempted < MIN_OPS or time.perf_counter() - begin + last <= seconds:
        op_start = time.perf_counter()
        parts = [("setup_s", setup_time(wl, workdir, env), len(refs) - 1)]
        shutil.rmtree(workdir / "op", ignore_errors=True)
        (workdir / "op").mkdir()
        results = {}
        for inv in wl.invocations:
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(reference_time(workdir, env))
                last_ref = time.perf_counter()
            result = results[inv.name] = spawn([sys.executable, "-m", "turnout", *inv.argv], workdir, env)
            if inv.group in wl.wall_groups:
                parts.append(("wall_s", result.wall_s, len(refs) - 1))
            if inv.group in ALGOS:
                parts.append((f"{inv.group}.wall_s", result.wall_s, len(refs) - 1))
        ops.append(parts)
        attempted += 1
        ok = checker.check(attempted - 1, {k: r.exit_code for k, r in results.items()},
                           {k: r.stderr for k, r in results.items()}, workdir / "op")
        failed += not ok
        rss.append(max(r.maxrss_mb for r in results.values()))
        last = time.perf_counter() - op_start
    refs.append(reference_time(workdir, env))

    # a sample taken after reference i and before reference i + 1 is scaled by their mean
    scales = [REFERENCE_S * 2 / (before + after) for before, after in zip(refs, refs[1:])]
    scaled: dict[str, list[float]] = {name: [] for name in timed}
    unscaled: dict[str, list[float]] = {name: [] for name in timed}
    for parts in ops:
        for name in timed:
            scaled[name].append(sum(v * scales[i] for n, v, i in parts if n == name))
            unscaled[name].append(sum(v for n, v, _ in parts if n == name))
    stats = {name: ({**summarize(scaled[name]), "unscaled_median": statistics.median(unscaled[name])}, "s")
             for name in timed}
    stats["peak_rss_mb"] = (summarize(rss), "MB")
    return stats, attempted, failed, {"reference_s": summarize(refs)}


def run_traced(wl: Workload, seconds: float, workdir: Path,
               checker: Checker) -> tuple[dict, int, int, dict]:
    env = child_env()
    numpy_s, turnout_s = import_times(workdir, env)
    sys.path.insert(0, str(SRC))
    from turnout import cli

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    attempted = failed = 0
    begin = time.perf_counter()
    last = 0.0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        while attempted < 2 * MIN_OPS or time.perf_counter() - begin + last <= seconds:
            op_start = time.perf_counter()
            # alternate which side of each pair runs first
            use_tracer = (attempted % 2 == 0) == ((attempted // 2) % 2 == 0)
            shutil.rmtree("op", ignore_errors=True)
            os.mkdir("op")
            if use_tracer:
                tracer.install()
            codes, errors = {}, {}
            start = time.perf_counter()
            try:
                for inv in wl.invocations:
                    tracer.begin(attempted, inv.name, inv.group)
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(sink):
                        codes[inv.name] = cli.main(list(inv.argv))
                    errors[inv.name] = sink.getvalue()
            finally:
                wall = time.perf_counter() - start
                tracer.uninstall()
            (traced if use_tracer else plain).append(wall)
            attempted += 1
            failed += not checker.check(attempted - 1, codes, errors, Path("op"))
            last = time.perf_counter() - op_start
    finally:
        os.chdir(cwd)

    values = layer_metrics(tracer, wl.wall_groups)
    values["import.numpy_s"] = statistics.median(numpy_s)
    values["import.turnout_s"] = statistics.median(turnout_s)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain)
    units = dict(per_layer_names())
    stats = {name: ({"median": values.get(name, 0.0), "n": len(traced)}, unit)
             for name, unit in units.items()}
    tracer.write(OUT / f"spans-{wl.name}-s{checker.seed}.tsv.gz")
    return stats, attempted, failed, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store operation 0's output digests as the reference (seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)
    if not (SRC / "turnout" / "__init__.py").is_file():
        print(f"bench: no turnout package under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")

    load1 = os.getloadavg()[0]
    wl = workload(args.workload, args.seed)
    workdir = BENCH / "work" / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        sizes = write_inputs(wl, args.seed, workdir)
        checker = Checker(wl.name, args.seed, args.record_digests)
        run = run_traced if args.trace else run_untraced
        stats, attempted, failed, notes = run(wl, args.seconds, workdir, checker)
        if wl.name == "synth-score":
            oracle_problems = oracle_check(workdir, args.seed)
            if oracle_problems:
                # every operation wrote these same bytes, or it already failed
                checker.problems += oracle_problems
                failed = attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / "work").rmdir()

    if not args.trace:
        stats["ops_ok_frac"] = ({"median": (attempted - failed) / attempted, "n": attempted}, "frac")
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, sizes, load1),
        "ops_failed_frac": failed / attempted,
        "problems": checker.problems,
        **notes,
        "metrics": {name: {"unit": unit, **summary} for name, (summary, unit) in stats.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for problem in checker.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summary["median"], "unit": unit}
                    for name, (summary, unit) in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
