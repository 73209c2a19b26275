"""Checks on the bundled survey: margins, schema shape, spot values."""

import pytest

from turnout import (
    class_counts,
    crosstab,
    dataset_to_csv,
    election_csv_text,
    load_election_corpus,
    load_election_schema,
)


def test_corpus_size_and_class_margins():
    data = load_election_corpus()
    assert data.n == 100
    assert class_counts(data) == (84, 10, 6)


def test_schema_shape():
    schema = load_election_schema()
    assert len(schema.features) == 9
    assert schema.target.name == "Participation in elections"
    assert schema.class_labels == (
        "Partnership",
        "Possible participation",
        "Without participation",
    )
    sizes = [a.size for a in schema.features]
    assert sizes == [3, 4, 3, 3, 4, 3, 3, 3, 3]


def test_labels_kept_verbatim():
    schema = load_election_schema()
    assert "Under license" in schema.features[1].values
    assert "free Job" in schema.features[2].values
    assert "Collegiate" in schema.features[2].values
    assert "important task" == schema.features[4].name


def test_first_two_records_differ_in_eight_positions():
    data = load_election_corpus()
    # they share only the attitude-to-elections answer
    assert int((data.matrix[0] != data.matrix[1]).sum()) == 8
    j = data.schema.feature_index("Attitude to elections")
    assert data.matrix[0, j] == data.matrix[1, j]


def _hand_tally(attribute_column):
    """Second route: count straight off the shipped CSV text."""
    lines = election_csv_text().strip().splitlines()
    header = lines[0].split(",")
    col = header.index(attribute_column)
    tally = {}
    for line in lines[1:]:
        cells = line.split(",")
        key = (cells[col], cells[-1])
        tally[key] = tally.get(key, 0) + 1
    return tally


@pytest.mark.parametrize("attribute", ["Age", "Job", "Attitude to election officials"])
def test_crosstab_matches_independent_tally(attribute):
    data = load_election_corpus()
    schema = data.schema
    table = crosstab(data, attribute)
    assert int(table.sum()) == 100
    tally = _hand_tally(attribute)
    attr = schema.features[schema.feature_index(attribute)]
    for v, value in enumerate(attr.values):
        for c, cls in enumerate(schema.class_labels):
            assert table[v, c] == tally.get((value, cls), 0)


def test_corpus_round_trips_through_csv():
    data = load_election_corpus()
    from turnout import parse_csv

    assert parse_csv(dataset_to_csv(data), data.schema, labeled=True) == data
