"""Bundled election-participation survey: 100 labeled records.

The survey asked voters nine categorical questions (age band, education,
job, political orientation, priority issue, and four attitude items) and
recorded whether they take part in elections.  Class distribution is
84 / 10 / 6 across Partnership, Possible participation, and Without
participation; tests treat those margins as the transcription checksum.
"""

from __future__ import annotations

from importlib import resources

from .data import AttributeSchema, Dataset, parse_csv, parse_schema

# Root split that the bundled survey is expected to produce; the evaluate
# report states whether the induced tree agrees (a note, never a failure).
REFERENCE_TREE_ROOT = "Attitude to election officials"


def _resource_text(filename: str) -> str:
    return (resources.files(__package__) / "corpus_data" / filename).read_text(encoding="utf-8")


def election_schema_text() -> str:
    """Raw schema document, exactly as shipped."""
    return _resource_text("election.schema")


def election_csv_text() -> str:
    """Raw data file, exactly as shipped."""
    return _resource_text("election.csv")


def load_election_schema() -> AttributeSchema:
    return parse_schema(election_schema_text())


def load_election_corpus() -> Dataset:
    return parse_csv(election_csv_text(), load_election_schema(), labeled=True)
