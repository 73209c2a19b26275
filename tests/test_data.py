import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import turnout.data
from turnout import (
    Attribute,
    AttributeSchema,
    DataError,
    Dataset,
    SchemaError,
    canonical_label,
    class_counts,
    crosstab,
    dataset_to_csv,
    load_election_schema,
    parse_csv,
    parse_schema,
)

import oracles

GOOD_SCHEMA = """\
# toy survey
attribute Color: Red | Green | Blue
attribute Size:  Small |  Big
target Outcome: Yes | No
"""


def test_canonical_label_collapses_whitespace():
    assert canonical_label("  free   Job ") == "free Job"
    assert canonical_label("Fuel\tRationing") == "Fuel Rationing"
    # no case folding
    assert canonical_label("Under license") != "under license"


def test_parse_schema_happy_path():
    schema = parse_schema(GOOD_SCHEMA)
    assert schema.feature_names == ("Color", "Size")
    assert schema.features[0].values == ("Red", "Green", "Blue")
    assert schema.features[1].values == ("Small", "Big")
    assert schema.class_labels == ("Yes", "No")


def test_parse_schema_preserves_declaration_order():
    schema = parse_schema(GOOD_SCHEMA)
    data = parse_csv("Color,Size,Outcome\nBlue,Small,No\n", schema, labeled=True)
    assert data.matrix.tolist() == [[2, 0]]
    assert data.label_array.tolist() == [1]


def test_schema_text_round_trip():
    schema = parse_schema(GOOD_SCHEMA)
    assert parse_schema(schema.to_text()) == schema
    assert parse_schema(schema.to_text()).fingerprint() == schema.fingerprint()


def test_fingerprint_changes_with_order():
    a = parse_schema("attribute x: A | B\ntarget y: P | Q\n")
    b = parse_schema("attribute x: B | A\ntarget y: P | Q\n")
    assert a.fingerprint() != b.fingerprint()


def test_fingerprint_digest_is_sha256():
    # hashlib is the reference only here; 55/56, 64 and 119/120 bytes are
    # where the padding takes one more block
    from turnout.sha256 import sha256_hex

    rng = random.Random(0)
    for n in range(201):
        data = rng.randbytes(n)
        assert sha256_hex(data) == hashlib.sha256(data).hexdigest(), n
    accented = parse_schema("attribute Größe: klein | groß\ntarget Wahl: ja | nein | ¿?\n")
    for schema in (load_election_schema(), accented):
        text = schema.to_text().encode("utf-8")
        assert schema.fingerprint() == hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize(
    "text",
    [
        "attribute x: A | B\n",  # no target
        "target y: P | Q\n",  # no features
        "attribute x: A | B\ntarget y: P | Q\ntarget z: R | S\n",  # two targets
        "attribute x: A | A\ntarget y: P | Q\n",  # duplicate label
        "attribute x: A\ntarget y: P | Q\n",  # degenerate domain
        "attribute x: A | B\nattribute x: C | D\ntarget y: P | Q\n",  # dup name
        "attribute x: A | B\ntarget x: P | Q\n",  # target shadows feature
        "wibble x: A | B\ntarget y: P | Q\n",  # unknown keyword
        "attribute x A | B\ntarget y: P | Q\n",  # missing colon
        "attribute x: A, | B\ntarget y: P | Q\n",  # comma in label
    ],
)
def test_parse_schema_rejects(text):
    with pytest.raises(SchemaError):
        parse_schema(text)


def _toy():
    return parse_schema(GOOD_SCHEMA)


def test_parse_csv_labeled():
    text = "Color,Size,Outcome\nRed,Small,Yes\nBlue,Big,No\n"
    data = parse_csv(text, _toy(), labeled=True)
    assert data.matrix.tolist() == [[0, 0], [2, 1]]
    assert data.label_array.tolist() == [0, 1]


def test_parse_csv_unlabeled():
    text = "Color,Size\nGreen,Big\n"
    data = parse_csv(text, _toy(), labeled=False)
    assert data.matrix.tolist() == [[1, 1]]
    assert data.label_array is None
    assert not data.labeled


def test_parse_csv_collapses_cell_whitespace():
    text = "Color , Size , Outcome\n Red ,  Small\t, Yes \n"
    data = parse_csv(text, _toy(), labeled=True)
    assert data.matrix.tolist() == [[0, 0]]


def test_parse_csv_is_case_sensitive():
    text = "Color,Size,Outcome\nred,Small,Yes\n"
    with pytest.raises(DataError, match="red"):
        parse_csv(text, _toy(), labeled=True)


def test_parse_csv_unknown_value_names_line_and_column():
    text = "Color,Size,Outcome\nRed,Small,Yes\nRed,Huge,No\n"
    with pytest.raises(DataError) as err:
        parse_csv(text, _toy(), labeled=True)
    assert "line 3" in str(err.value)
    assert "Huge" in str(err.value)
    assert "Size" in str(err.value)


def test_parse_csv_header_mismatch():
    with pytest.raises(DataError, match="header"):
        parse_csv("Size,Color,Outcome\n", _toy(), labeled=True)
    # labeled parse demands the target column
    with pytest.raises(DataError, match="header"):
        parse_csv("Color,Size\nRed,Small\n", _toy(), labeled=True)


def test_parse_csv_wrong_column_count():
    with pytest.raises(DataError, match="line 2"):
        parse_csv("Color,Size,Outcome\nRed,Small\n", _toy(), labeled=True)


def test_parse_csv_empty_cell():
    with pytest.raises(DataError, match="empty value"):
        parse_csv("Color,Size,Outcome\nRed,,Yes\n", _toy(), labeled=True)


def test_parse_csv_header_only():
    data = parse_csv("Color,Size,Outcome\n", _toy(), labeled=True)
    assert data.n == 0
    assert data.labeled
    assert class_counts(data) == (0, 0)


def test_parse_csv_missing_header():
    with pytest.raises(DataError, match="header"):
        parse_csv("\n\n", _toy(), labeled=True)


def test_parse_csv_preserves_record_order():
    text = "Color,Size,Outcome\n" + "".join(
        f"{color},Small,Yes\n" for color in ["Blue", "Red", "Green", "Red"]
    )
    data = parse_csv(text, _toy(), labeled=True)
    assert data.matrix[:, 0].tolist() == [2, 0, 1, 0]


def test_dataset_rejects_mismatched_labels():
    schema = _toy()
    with pytest.raises(DataError, match="uniformly"):
        Dataset(schema=schema, rows=((0, 0), (1, 1)), labels=(0,))


def test_dataset_rejects_out_of_range_indices():
    schema = _toy()
    with pytest.raises(DataError):
        Dataset(schema=schema, rows=((9, 0),), labels=(0,))
    with pytest.raises(DataError):
        Dataset(schema=schema, rows=((0, 0),), labels=(7,))


def test_dataset_names_the_earliest_failing_record():
    schema = _toy()
    # records 1 and 2 have bad values, record 3 the wrong width: record 1 is reported
    with pytest.raises(DataError, match=r"record 1: index 5 out of range for attribute 'Size'"):
        Dataset(schema=schema, rows=((0, 0), (0, 5), (7, 0), (0,)), labels=None)
    with pytest.raises(DataError, match="record 1: expected 2 values, got 3"):
        Dataset(schema=schema, rows=((0, 0), (0, 1, 0), (9, 9)), labels=None)
    with pytest.raises(DataError, match="record 2: label index -1 out of range"):
        Dataset(schema=schema, rows=((0, 0),) * 3, labels=(0, 1, -1))


def test_dataset_caches_arrays_and_subsets_by_index():
    data = parse_csv(
        "Color,Size,Outcome\nRed,Small,Yes\nBlue,Big,No\nGreen,Big,Yes\n", _toy(), labeled=True
    )
    assert vars(data).keys() == {"schema", "matrix", "label_array"}  # the arrays only
    built = Dataset(schema=data.schema, rows=((0, 0), (2, 1), (1, 1)), labels=(0, 1, 0))
    assert data == built and hash(data) == hash(built) and repr(data) == repr(built)
    assert data.matrix.tolist() == [[0, 0], [2, 1], [1, 1]]
    assert data.label_array.tolist() == [0, 1, 0]
    assert not data.matrix.flags.writeable
    picked = data.subset(np.array([2, 0]))
    assert picked == Dataset(schema=data.schema, rows=((1, 1), (0, 0)), labels=(0, 0))
    assert picked.matrix.tolist() == [[1, 1], [0, 0]]
    assert picked.label_array.tolist() == [0, 0]
    assert picked.n == 2 and picked.labeled
    with pytest.raises(AttributeError, match="immutable"):
        picked.schema = data.schema


def test_subset_refuses_indices_that_are_not_integers():
    # a mask or floats cast to intp would pick records 0 and 1 without a word
    corpus = turnout.load_election_corpus()
    for indices in (corpus.label_array == 1, [0.7, 1.2]):
        with pytest.raises(ValueError, match="^subset indices must be integers, got "):
            corpus.subset(indices)


def test_dataset_equality_hash_and_repr_read_the_arrays():
    schema = _toy()
    data = Dataset(schema, ((0, 0), (2, 1)), (0, 1))
    assert data != Dataset(schema, ((0, 0), (2, 1)), (0, 0))
    assert data != Dataset(schema, ((0, 0), (2, 0)), (0, 1))
    assert data != Dataset(schema, ((0, 0), (2, 1)), None)
    assert data != Dataset(parse_schema(GOOD_SCHEMA.replace("Big", "Large")),
                           ((0, 0), (2, 1)), (0, 1))
    assert Dataset(schema, (), ()) != Dataset(schema, (), None)
    assert len({data, Dataset(schema, ((0, 0), (2, 1)), (0, 1)), Dataset(schema, (), None)}) == 2
    assert repr(data) == f"Dataset(schema={schema!r}, matrix=[[0, 0], [2, 1]], label_array=[0, 1])"
    assert repr(Dataset(schema, (), None)) == f"Dataset(schema={schema!r}, matrix=[], label_array=None)"


def test_dataset_copies_the_arrays_it_is_given():
    rows, labels = np.array([[0, 0], [2, 1]]), np.array([0, 1])
    data = Dataset(_toy(), rows, labels)
    rows[0, 0], labels[0] = 1, 1
    assert data.matrix.tolist() == [[0, 0], [2, 1]] and data.label_array.tolist() == [0, 1]


@pytest.mark.parametrize("rows, labels, message", [
    (((0.7, 0), (1.2, 1)), (0, 1), "record values must be integers, got float64 values"),
    (((0, 0), (1, 1)), (0.5, 1.9), "labels must be integers, got float64 values"),
    ((("1", "0"),), (0,), "record values must be integers, got <U1 values"),
    (((True, False),), (0,), "record values must be integers, got bool values"),
], ids=["float-records", "float-labels", "str-records", "bool-records"])
def test_dataset_rejects_non_integer_values(rows, labels, message):
    with pytest.raises(ValueError) as caught:
        Dataset(_toy(), rows, labels)
    assert str(caught.value) == message


@pytest.mark.parametrize("rows, labels, error, message", [
    (((0, 0, 1), (1, 1, 0)), (0, 1), DataError, "record 0: expected 2 values, got 3"),
    (((0, 0), (2, 3)), (0, 1), DataError, "record 1: index 3 out of range for attribute 'Size'"),
    (((0, 0), (2, 1)), (0, 2), DataError, "record 1: label index 2 out of range"),
    (((0.0, 0.0), (2.0, 1.0)), (0, 1), ValueError,
     "record values must be integers, got float64 values"),
], ids=["wrong-width", "out-of-range-value", "out-of-range-label", "float-records"])
def test_dataset_refuses_arrays_as_it_refuses_tuples(rows, labels, error, message):
    # parse_csv and subset hand the constructor arrays; an array's width is read from its shape
    for given in ((rows, labels), (np.array(rows), np.array(labels))):
        with pytest.raises(error) as caught:
            Dataset(_toy(), *given)
        assert str(caught.value) == message


def test_parse_csv_peak_memory_is_a_small_multiple_of_the_matrix():
    # 10,000 unlabeled records: the list of cell indices is freed before
    # the constructor copies the table, so the two are never all alive at once
    corpus = turnout.load_election_corpus()
    header, _, body = dataset_to_csv(Dataset(corpus.schema, corpus.matrix, None)).partition("\n")
    text = f"{header}\n{body * 100}"
    tracemalloc.start()
    try:
        data = parse_csv(text, corpus.schema, labeled=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n == 10_000 and not data.labeled
    assert peak < 3.25 * data.matrix.nbytes


def test_dataset_accepts_an_empty_batch():
    # numpy reads () as a float array; it has no value to truncate
    data = Dataset(_toy(), (), ())
    assert data.matrix.shape == (0, 2) and data.label_array.shape == (0,)


def test_leading_byte_order_mark_is_stripped():
    schema = parse_schema("\ufeff" + GOOD_SCHEMA)
    assert schema == parse_schema(GOOD_SCHEMA)
    data = parse_csv("\ufeffColor,Size,Outcome\nRed,Small,Yes\n", schema, labeled=True)
    assert data.matrix.tolist() == [[0, 0]]


def test_parse_csv_reads_a_file_of_several_blocks_as_one():
    # CRLF endings with one "\r\n" where a cut at a fixed width would split
    # it, a lone "\r", blank lines and a BOM, over four blocks
    block = turnout.data._BLOCK_CHARS
    head = "Color,Size,Outcome\r\nRed,Small,Yes\rBlue,Big,No\r\n\r\n"
    records = "Red,Small,Yes\r\nBlue, Big ,No\r\n \r\nGreen,Small,No\r\n"
    start = head + records * ((block - len(head)) // len(records) - 1)
    body = start + " " * (block - 1 - len(start)) + "\r\n" + records * (5 * block // (2 * len(records)))
    assert body[block - 1 : block + 1] == "\r\n" and len(body) > 3 * block
    crlf = "\ufeff" + body
    lf = body.replace("\r\n", "\n").replace("\r", "\n")
    data = parse_csv(crlf, _toy(), labeled=True)
    assert data == parse_csv(lf, _toy(), labeled=True)
    assert data.n == sum(1 for line in lf.splitlines()[1:] if line.strip())
    # a bad cell in the third block names the line text.splitlines() numbers
    at = crlf.index("Green", 2 * block + 64)
    bad = crlf[:at] + "Grey" + crlf[at + len("Green"):]
    lineno = next(i for i, line in enumerate(bad.splitlines(), start=1) if "Grey" in line)
    with pytest.raises(DataError) as err:
        parse_csv(bad, _toy(), labeled=True)
    assert str(err.value) == f"line {lineno}: unknown value 'Grey' for attribute 'Color'"


def test_class_counts_requires_labels():
    data = parse_csv("Color,Size\nRed,Small\n", _toy(), labeled=False)
    with pytest.raises(ValueError):
        class_counts(data)


def test_class_counts_includes_zero_classes():
    text = "Color,Size,Outcome\nRed,Small,Yes\nBlue,Big,Yes\n"
    data = parse_csv(text, _toy(), labeled=True)
    assert class_counts(data) == (2, 0)


def test_crosstab_counts_and_shape():
    text = (
        "Color,Size,Outcome\n"
        "Red,Small,Yes\n"
        "Red,Big,No\n"
        "Green,Small,Yes\n"
    )
    data = parse_csv(text, _toy(), labeled=True)
    table = crosstab(data, "Color")
    assert table.shape == (3, 2)
    assert table.tolist() == [[1, 1], [1, 0], [0, 0]]
    assert table.sum() == data.n


def test_crosstab_rejects_target_and_unknown_names():
    data = parse_csv("Color,Size,Outcome\nRed,Small,Yes\n", _toy(), labeled=True)
    with pytest.raises(ValueError):
        crosstab(data, "Outcome")
    with pytest.raises(ValueError):
        crosstab(data, "Shape")


# --- round-trip property -------------------------------------------------

labels_st = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")), min_size=1, max_size=8
)


@st.composite
def schema_and_rows(draw):
    n_attrs = draw(st.integers(min_value=1, max_value=4))
    sizes = [draw(st.integers(min_value=2, max_value=4)) for _ in range(n_attrs)]
    features = tuple(
        Attribute(name=f"attr{j}", values=tuple(f"V{j}x{v}" for v in range(size)))
        for j, size in enumerate(sizes)
    )
    target = Attribute(name="label", values=("Pos", "Neg", "Meh"))
    schema = AttributeSchema(features=features, target=target)
    n = draw(st.integers(min_value=0, max_value=12))
    rows = tuple(
        tuple(draw(st.integers(min_value=0, max_value=size - 1)) for size in sizes)
        for _ in range(n)
    )
    labeled = draw(st.booleans())
    labels = (
        tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(n))
        if labeled
        else None
    )
    return Dataset(schema=schema, rows=rows, labels=labels)


@given(schema_and_rows())
def test_csv_round_trip(data):
    back = parse_csv(dataset_to_csv(data), data.schema, labeled=data.labeled)
    assert back == data


@given(schema_and_rows())
def test_schema_round_trip(data):
    assert parse_schema(data.schema.to_text()) == data.schema


# --- canonical lines are looked up whole; every other line cell by cell --


def _outcome(parse, text, schema, labeled):
    try:
        return parse(text, schema, labeled)
    except DataError as exc:
        return f"DataError: {exc}"


# labels with an internal space, and one built in code that is not
# canonical: a raw cell can never match it, padded or not
LINE_SCHEMA = AttributeSchema(
    features=(Attribute("Color", ("Red", "Dark Blue")),
              Attribute("Mix", ("x  y", "z", "100%"))),
    target=Attribute("Outcome", ("Yes", "No")),
)


@st.composite
def line_file(draw):
    """A data file for LINE_SCHEMA mixing canonical lines with padded,
    tabbed, empty, unknown and wrong-width cells, blank lines and a BOM."""
    labeled = draw(st.booleans())
    columns = list(LINE_SCHEMA.features) + ([LINE_SCHEMA.target] if labeled else [])

    def cell(attr):
        label = draw(st.sampled_from(attr.values))
        return draw(st.sampled_from([
            label, label, label, f" {label}", f"{label}\t", label.replace(" ", "\t"),
            label.replace(" ", "  "), "", "  ", "x y", "red", "Blue", "No ", "?",
        ]))

    lines = [",".join(a.name for a in columns)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["record"] * 6 + ["blank", "short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        cells = [cell(attr) for attr in columns]
        if kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append("Yes")
        lines.append(",".join(cells))
    if draw(st.booleans()):
        lines.insert(0, "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(lines) + end, labeled


@given(line_file())
@settings(max_examples=300)
def test_parse_csv_matches_the_per_cell_parser(case):
    text, labeled = case
    got = _outcome(parse_csv, text, LINE_SCHEMA, labeled)
    assert got == _outcome(oracles.parse_csv, text, LINE_SCHEMA, labeled)


def test_a_non_canonical_schema_label_never_matches_a_cell():
    for cell in ("x  y", "x y", " x  y "):
        text = f"Color,Mix\nRed,z\nRed,{cell}\n"
        with pytest.raises(DataError) as err:
            parse_csv(text, LINE_SCHEMA, labeled=False)
        assert str(err.value) == "line 3: unknown value 'x y' for attribute 'Mix'"
    # the whole-line lookup appends nothing for a line it gives up on
    data = parse_csv("Color,Mix\nDark Blue,100%\nRed, z \n", LINE_SCHEMA, labeled=False)
    assert data.matrix.tolist() == [[1, 2], [0, 1]]


def test_canonical_records_are_not_canonicalised_cell_by_cell(monkeypatch):
    real = turnout.data.canonical_label
    calls = []

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(turnout.data, "canonical_label", counting)

    def calls_to_parse(n):
        calls.clear()
        text = "Color,Size,Outcome\n" + "Blue,Big,No\nRed,Small,Yes\n" * (n // 2)
        assert parse_csv(text, _toy(), labeled=True).n == n
        return len(calls)

    assert calls_to_parse(10) == calls_to_parse(1000)
