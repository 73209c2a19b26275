import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from turnout.data import read_blocks, text_lines
from turnout.evaluation import ConfusionMatrix
from turnout.model_io import model_from_text, model_to_text
from turnout.report import format_confusion_table, parse_confusion_table

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


def test_a_record_that_is_no_sequence_is_a_data_error_naming_it():
    # both were a bare TypeError: "object of type '...' has no len()"
    rows = np.array([0, 1])
    with pytest.raises(DataError) as err:
        Dataset(_toy(), rows, None)
    assert str(err.value) == f"record 0: expected 2 values, got {rows[0]!r}"
    with pytest.raises(DataError) as err:
        Dataset(_toy(), ((0, 0), None, 3), (0, 1, 0))
    assert str(err.value) == "record 1: expected 2 values, got None"
    # a bad value in an earlier record is still the one named
    with pytest.raises(DataError, match=r"^record 0: index 5 out of range for attribute 'Size'$"):
        Dataset(_toy(), ((0, 5), None), None)


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


def test_subset_refuses_indices_outside_the_records():
    # numpy would wrap -1 to the last record, and refuse 100 with a bare IndexError
    corpus = turnout.load_election_corpus()
    assert corpus.n == 100
    for indices, first in (([-1], -1), ([0, 100], 100), ([3, -100, 250], -100)):
        with pytest.raises(ValueError, match=f"^subset index {first} is outside 0..99$"):
            corpus.subset(indices)
    assert corpus.subset([99, 0]).matrix.tolist() == corpus.matrix[[99, 0]].tolist()


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


def test_a_file_with_carriage_return_endings_is_split_a_block_at_a_time(tmp_path):
    # every line boundary ends a block, not only a line feed, so a file of
    # "\r"-only endings is never held whole
    corpus = turnout.load_election_corpus()
    text = dataset_to_csv(corpus).replace("\n", "\r") * 100
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode("utf-8"))
    assert path.stat().st_size > 1_000_000
    tracemalloc.start()
    try:
        n_lines = sum(1 for _ in text_lines(read_blocks(path, "data file")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_lines == len(text.splitlines())
    assert peak < 1_000_000


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


def _outcome(parse, *args):
    """What ``parse`` makes of ``args``: its result, or its error's type and message."""
    try:
        return parse(*args)
    except turnout.InputError as exc:
        return f"{type(exc).__name__}: {exc}"


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


# ------------------------------------------------------ reading in blocks

BLOCK = turnout.data._BLOCK_CHARS


def _blocks(path):
    """read_blocks of a data file, each block checked to be no longer than
    one read's text."""
    blocks = list(read_blocks(path, "data file"))
    assert all(len(block) <= turnout.data._BLOCK_CHARS for block in blocks)
    return blocks


def test_read_blocks_decodes_a_character_split_across_a_read(tmp_path):
    # the first byte of the two-byte "ü" is the last byte of the first read
    schema = parse_schema(GOOD_SCHEMA.replace("Green", "Grün"))
    head = "Color,Size,Outcome\n" + "Red,Small,Yes\n" * 4000
    head += " " * (BLOCK - 4 - len(head)) + "\n"
    raw = (head + "Grün,Big,No\n" + "Blue,Big,Yes\n" * 10).encode("utf-8")
    assert raw[BLOCK - 1 : BLOCK + 1] == "ü".encode("utf-8")
    path = tmp_path / "split.csv"
    path.write_bytes(raw)
    text = raw.decode("utf-8")
    assert "".join(_blocks(path)) == text == "".join(read_blocks(path, "data file"))
    data = parse_csv(read_blocks(path, "data file"), schema, labeled=True)
    assert data == parse_csv(text, schema, labeled=True)
    assert data.n == 4011 and data.matrix[4000].tolist() == [1, 1]


def _not_utf8(raw: bytes, path) -> str:
    """The message for ``raw``, from one decode of the whole file."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return (f"data file {str(path)!r} is not UTF-8: byte 0x{raw[exc.start]:02x} "
                f"at offset {exc.start} ({exc.reason})")
    raise AssertionError("the file decodes")


@pytest.mark.parametrize("where, bad, message", [
    (100_000, b"\xff", "byte 0xff at offset 100000 (invalid start byte)"),
    # the lead byte is the last of the first read, which the decoder holds back
    (BLOCK - 1, b"\xc3A", f"byte 0xc3 at offset {BLOCK - 1} (invalid continuation byte)"),
    (3 * BLOCK + 5, b"\xe2\x82", f"byte 0xe2 at offset {3 * BLOCK + 5} (invalid continuation byte)"),
    (None, b"\xc3", "(unexpected end of data)"),
], ids=["start-byte", "held-back-lead", "third-read", "truncated-end"])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_a_bad_byte_past_the_first_block_names_its_offset_in_the_file(tmp_path, where, bad,
                                                                      message, bom):
    good = bom + ("Color,Size,Outcome\n" + "Red,Small,Yes\n" * (4 * BLOCK // 14)).encode()
    where = len(good) if where is None else where
    raw = good[:where] + bad + good[where:]
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    expected = _not_utf8(raw, path)
    assert expected.endswith(message)
    for read in (lambda: "".join(read_blocks(path, "data file")),
                 lambda: parse_csv(read_blocks(path, "data file"), _toy(), labeled=True)):
        with pytest.raises(turnout.InputError) as err:
            read()
        assert str(err.value) == expected


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("last_line_ended", [True, False], ids=["ended", "unended"])
def test_a_file_read_in_blocks_parses_as_its_lf_copy(tmp_path, ending, last_line_ended):
    records = ("Red,Small,Yes", "Blue, Big ,No", "Green,Small,No")
    reps = (BLOCK - 60) // len(ending.join(records) + ending)
    head = ending.join(["Color,Size,Outcome", *records * reps]) + ending
    # blank lines, a line of spaces among them, across the end of the first
    # read; a CRLF file has its "\r" as the read's last byte
    blank = " " * ((BLOCK - 1 - len(head)) % len(ending)) + ending * 100 + "   " + ending * 10
    text = head + blank + ending.join(records * (BLOCK // 15)) + ending * last_line_ended
    assert len(head) < BLOCK < len(head) + len(blank) and len(text) > 2 * BLOCK
    if ending == "\r\n":
        assert text[BLOCK - 1 : BLOCK + 1] == "\r\n"
    path, lf_path = tmp_path / "data.csv", tmp_path / "lf.csv"
    path.write_bytes(text.encode())
    lf = text.replace("\r\n", "\n")
    lf_path.write_bytes(lf.encode())
    assert "".join(_blocks(path)) == text and len(_blocks(path)) > 2
    data = parse_csv(read_blocks(path, "data file"), _toy(), labeled=True)
    assert data == parse_csv(read_blocks(lf_path, "data file"), _toy(), labeled=True)
    assert data == parse_csv(text, _toy(), labeled=True)
    assert data.n == len(records) * (reps + BLOCK // 15)
    assert data.matrix[-1].tolist() == [1, 0] and data.label_array[-1] == 1


# ------------------------------------------- one line splitter for every parser

# every line boundary str.splitlines knows, and line text of one to four
# UTF-8 bytes per character, a byte-order mark among them
SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
LINE_TEXT = st.text("a, \t\u00fc\u20ac\ufeff\U0001f5f3", max_size=5)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.one_of(st.sampled_from(SEPARATORS), LINE_TEXT), max_size=40),
       bom=st.booleans(), block=st.integers(1, 9), cuts=st.lists(st.integers(0, 200), max_size=8))
@example(pieces=["a", "\r", "\n", "bc", "\r"], bom=False, block=9, cuts=[2, 4])
def test_text_lines_splits_as_splitlines_splits_the_whole_text(tmp_path_factory, pieces, bom,
                                                                block, cuts):
    # a "\r" piece then a "\n" piece is one "\r\n"; tiny blocks put a cut,
    # and a read of the file, at every offset, inside characters too
    text = "\ufeff" * bom + "".join(pieces)
    want = text.removeprefix("\ufeff").splitlines()
    path = tmp_path_factory.mktemp("lines") / "text.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(turnout.data, "_BLOCK_CHARS", block)
        assert list(text_lines(text)) == want
        assert list(text_lines(read_blocks(path, "data file"))) == want
        assert list(text_lines(_blocks(path))) == want
    # chunks that end wherever the drawn cuts fall, and one cut at every
    # offset: between "\r" and "\n", and inside a line with no line feed
    body = text.removeprefix("\ufeff")
    bounds = [0, *sorted(min(cut, len(body)) for cut in cuts), len(body)]
    assert list(text_lines(body[a:b] for a, b in zip(bounds, bounds[1:]))) == want
    for cut in range(len(body) + 1):
        assert list(text_lines([body[:cut], body[cut:]])) == want


def _documents():
    """(parser, good document, the document with a fault) for every format."""
    corpus = turnout.load_election_corpus()
    model = model_to_text(turnout.train(corpus, "tree"))
    table = format_confusion_table(ConfusionMatrix(counts=((3, 1), (2, 4)), labels=("Yes", "No")))
    return [
        (parse_schema, GOOD_SCHEMA, GOOD_SCHEMA.replace("Size:", "Size")),
        (lambda text: parse_csv(text, _toy(), labeled=None),
         "Color,Size,Outcome\nRed,Small,Yes\n\nBlue, Big ,No\n",
         "Color,Size,Outcome\nRed,Small,Yes\n\nBlue,Huge,No\n"),
        (lambda text: model_from_text(text).payload(), model,
         model.replace("algorithm: tree", "algorithm: forest")),
        (parse_confusion_table, table, table.replace("\t4\t6\n", "\t4\t7\n")),
    ]


@pytest.mark.parametrize("block", [3, 1 << 16], ids=["tiny-blocks", "one-block"])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r", "\u2028"], ids=["lf", "crlf", "cr", "ls"])
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_every_parser_reads_a_str_and_its_file_alike(tmp_path, monkeypatch, block, ending, bom):
    monkeypatch.setattr(turnout.data, "_BLOCK_CHARS", block)
    for parse, *documents in _documents():
        outcomes = []
        for document in documents:
            text = bom + document.replace("\n", ending)
            path = tmp_path / "input.txt"
            path.write_bytes(text.encode("utf-8"))
            outcome = _outcome(parse, text)
            assert _outcome(parse, read_blocks(path, "input file")) == outcome
            outcomes.append(outcome)
        good, bad = outcomes
        assert not isinstance(good, str) and isinstance(bad, str), outcomes
