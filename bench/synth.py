"""Seeded synthetic survey records for the benchmark workloads.

The generator reads the shipped election survey as plain files and imports
nothing from ``turnout``, so no change to the package can change a
workload.  Classes are drawn at the corpus shares (84/10/6 for the shipped
survey) and each attribute independently from its Laplace-smoothed
per-class frequency in the corpus: weight ``count(value, class) + 1`` over
``count(class) + domain size``.  All weights are integers and the draws use
``random.Random`` seeded from a string, so the same seed gives
byte-identical files on every platform and Python version.
"""

from __future__ import annotations

import random
from itertools import accumulate
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "turnout" / "corpus_data"


def _canonical(text: str) -> str:
    return " ".join(text.split())


class Corpus:
    """Schema domains and per-class value counts of the shipped survey."""

    def __init__(self, corpus_dir: Path = CORPUS_DIR) -> None:
        self.schema_text = (corpus_dir / "election.schema").read_text(encoding="utf-8")
        self.features: list[tuple[str, list[str]]] = []
        self.target: tuple[str, list[str]] | None = None
        for raw in self.schema_text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, tail = line.partition(":")
            kind, _, name = _canonical(head).partition(" ")
            entry = (name, [_canonical(v) for v in tail.split("|")])
            if kind == "target":
                self.target = entry
            else:
                self.features.append(entry)
        if self.target is None:
            raise ValueError("corpus schema has no target line")

        lines = [
            line for line in (corpus_dir / "election.csv").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        header = [_canonical(c) for c in lines[0].split(",")]
        if header != [name for name, _ in self.features] + [self.target[0]]:
            raise ValueError("corpus header does not match its schema")
        k = len(self.target[1])
        self.class_counts = [0] * k
        self.value_counts = [[[0] * len(values) for values in (v for _, v in self.features)]
                             for _ in range(k)]  # [class][attribute][value]
        for line in lines[1:]:
            cells = [_canonical(c) for c in line.split(",")]
            c = self.target[1].index(cells[-1])
            self.class_counts[c] += 1
            for j, (_, values) in enumerate(self.features):
                self.value_counts[c][j][values.index(cells[j])] += 1

    @property
    def class_labels(self) -> list[str]:
        assert self.target is not None
        return self.target[1]

    def generate(self, seed: int, stream: str, rows: int, labeled: bool) -> str:
        """CSV text of ``rows`` records drawn from the stream (seed, stream)."""
        rng = random.Random(f"turnout-bench:{seed}:{stream}")
        class_cum = list(accumulate(self.class_counts))
        value_cum = [
            [list(accumulate(n + 1 for n in counts)) for counts in per_attr]
            for per_attr in self.value_counts
        ]
        header = [name for name, _ in self.features]
        if labeled:
            header.append(self.target[0])  # type: ignore[index]
        out = [",".join(header)]
        classes = range(len(self.class_counts))
        for _ in range(rows):
            c = rng.choices(classes, cum_weights=class_cum)[0]
            cells = [
                rng.choices(values, cum_weights=cum)[0]
                for (_, values), cum in zip(self.features, value_cum[c])
            ]
            if labeled:
                cells.append(self.class_labels[c])
            out.append(",".join(cells))
        return "\n".join(out) + "\n"

