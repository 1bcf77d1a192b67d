"""File formats, synthetic embedding generation, group/neighborhood
analyses, and the command-line interface."""

import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from hetlab import betamix, classic, cli, core, datasets, decomposition, ingest, special
from hetlab.core import renyi_heterogeneity
from hetlab.datasets import (
    EmbeddingDataset,
    SweepResult,
    group_decomposition,
    neighborhood_between,
    neighborhood_sweep,
    read_assignments,
    read_embeddings,
    synth_embeddings,
    write_embeddings,
)
from hetlab.errors import SingularityError, UndefinedOrderError, ValidationError
from hetlab.gaussian import GaussianComponent, gaussian_renyi, gaussian_within

from oracles import (
    bmm_index_comparison_loop,
    csv_text_per_row,
    gaussian_log_between_mp,
    neighborhood_between_loop,
    neighborhood_members,
    read_assignments_loop,
    read_embeddings_loop,
)


def json_cell(v: float):
    """A float as the JSON output writes it: null for NaN, the string
    "inf"/"-inf" for an infinity, else its 12-digit number."""
    if math.isnan(v):
        return None
    return "%.12g" % v if math.isinf(v) else float("%.12g" % v)


def make_dataset(*records):
    """An EmbeddingDataset from (id, label, mean, log-variance) tuples."""
    ids, labels, means, log_var = zip(*records)
    return EmbeddingDataset(ids=ids, labels=labels, means=means, log_var=log_var)


SMALL = (
    ("a", "0", [0.0, 0.0], [-1.0, -1.0]),
    ("b", "0", [0.5, 0.0], [-1.5, -1.0]),
    ("c", "1", [10.0, 10.0], [-1.0, -2.0]),
    ("d", "1", [10.5, 10.0], [-1.2, -1.1]),
    ("e", None, [5.0, 5.0], [-1.0, -1.0]),
)


def small_dataset():
    return make_dataset(*SMALL)


# ids and labels built from the characters that CSV quoting and the leading
# comment-block skip treat specially; a label is non-empty or None
_ID_TEXT = st.text(st.sampled_from(list('ab ,"#\n\r')), max_size=6)


def assert_same_dataset(back, ds):
    assert back.ids == ds.ids and back.labels == ds.labels
    assert np.allclose(back.means, ds.means, rtol=1e-11, atol=0)
    assert np.allclose(back.log_var, ds.log_var, rtol=1e-11, atol=0)


def to_text(result, fmt):
    buf = io.StringIO()
    result.write(buf, fmt)
    return buf.getvalue()


def cell_text(value):
    """The CSV text of ``value`` as a metadata scalar and as a one-cell
    column (a str column for None and str, else an array), which must agree."""
    column = [value] if value is None or isinstance(value, str) else np.array([value])
    lines = to_text(SweepResult(columns={"v": column, "w": column},
                                metadata={"v": value}), "csv").splitlines()
    assert lines[1] == "v,w" and lines[2].split(",") == [lines[0][len("# v="):]] * 2
    return lines[2].split(",")[0]


class TestFormatNumber:
    def test_cases(self):
        assert cell_text(None) == ""
        assert cell_text(True) == "true"
        assert cell_text(np.bool_(False)) == "false"
        assert cell_text(3) == "3"
        assert cell_text(0.1) == "0.1"
        assert cell_text(1.0 / 3.0) == "0.333333333333"
        assert cell_text(math.nan) == ""
        assert cell_text("x") == "x"

    @pytest.mark.parametrize("value,text", [
        (None, ""), (True, "true"), (False, "false"),
        (np.bool_(True), "true"), (np.bool_(False), "false"),
        (0, "0"), (-7, "-7"), (np.int64(2 ** 40), "1099511627776"),
        (np.float32(0.1), "0.10000000149"), (np.float64(2.5), "2.5"),
        (-0.0, "-0"), (1e300, "1e+300"), (math.inf, "inf"), ("x", "x"),
    ])
    def test_each_cell_type(self, value, text):
        # float32 widens to the same float64; bools, ints and strings keep
        # their renderings
        assert cell_text(value) == text

    def test_writers_share_the_format(self):
        ds = make_dataset(("a", None, [1.0 / 3.0], [2.0 / 3.0]))
        sweep = SweepResult(columns={"v": np.array([1.0 / 3.0])}, metadata={})
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            write_embeddings(ds, buf, fmt)
            for text in (buf.getvalue(), to_text(sweep, fmt)):
                assert "0.333333333333" in text and "0.3333333333333" not in text


class TestRecordsAndDataset:
    def test_record_validation(self):
        with pytest.raises(ValidationError, match="record 'x': mean"):
            make_dataset(("x", None, [1.0, math.nan], [0.0, 0.0]))
        with pytest.raises(ValidationError):
            make_dataset(("x", None, [1.0, 2.0], [0.0]))
        # the first bad record is named
        with pytest.raises(ValidationError, match="record 'b': log-variance"):
            make_dataset(("a", None, [0.0], [0.0]),
                         ("b", None, [1.0], [math.inf]),
                         ("c", None, [math.nan], [0.0]))

    @pytest.mark.parametrize("s", [-30.0, 800.0])
    def test_unusable_log_variance_names_record(self, s):
        # exp(-30) is below the covariance floor; exp(800) overflows
        with pytest.raises(ValidationError, match=r"record 'b': .*exp\(s\)"):
            make_dataset(("a", None, [0.0], [0.0]), ("b", None, [1.0], [s]))

    def test_dataset_validation(self):
        with pytest.raises(ValidationError):
            EmbeddingDataset(ids=(), labels=(), means=np.zeros((0, 1)),
                             log_var=np.zeros((0, 1)))
        with pytest.raises(ValidationError):
            make_dataset(("a", None, [0.0], [0.0]),
                         ("b", None, [0.0, 1.0], [0.0, 0.0]))
        with pytest.raises(ValidationError):
            EmbeddingDataset(ids=("a", "b"), labels=(None,),
                             means=np.zeros((2, 1)), log_var=np.zeros((2, 1)))

    def test_component_covariance(self):
        ens = make_dataset(("a", None, [1.0], [-2.0])).ensemble()
        assert ens.covariances[0, 0] == pytest.approx(math.exp(-2.0), rel=1e-6, abs=0)


class TestEmbeddingIO:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip(self, fmt):
        ds = small_dataset()
        buf = io.StringIO()
        write_embeddings(ds, buf, fmt)
        assert_same_dataset(read_embeddings(io.StringIO(buf.getvalue())), ds)

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(
        st.tuples(_ID_TEXT, st.none() | _ID_TEXT.filter(bool),
                  st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
                  st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2)),
        min_size=1, max_size=4))
    def test_special_characters_round_trip(self, records):
        ds = make_dataset(*records)
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            write_embeddings(ds, buf, fmt)
            assert_same_dataset(read_embeddings(io.StringIO(buf.getvalue())), ds)

    def test_unquoted_fields_unchanged(self):
        buf = io.StringIO()
        write_embeddings(make_dataset(("a b", "#x", [0.5], [-1.0]),
                                      ("c,d", None, [1.0], [-2.0])), buf, "csv")
        assert buf.getvalue() == ('id,label,m_1,s_1\n'
                                  'a b,#x,0.5,-1\n'
                                  '"c,d",,1,-2\n')

    def test_csv_header(self):
        buf = io.StringIO()
        write_embeddings(small_dataset(), buf, "csv")
        assert buf.getvalue().splitlines()[0] == "id,label,m_1,m_2,s_1,s_2"

    def test_comment_lines_skipped(self):
        # only the block before the header is comments; "#a" is a record
        text = ("# produced by a sweep\n#\n"
                "id,label,m_1,s_1\n"
                "#a,x,1.0,-1.0\n"
                "b,#y,2.0,-1.0\n")
        ds = read_embeddings(io.StringIO(text))
        assert ds.ids == ("#a", "b") and ds.labels == ("x", "#y")

    def test_json_after_blank_lines_is_json(self):
        buf = io.StringIO()
        write_embeddings(small_dataset(), buf, "json")
        text = "\n \t\n  " + buf.getvalue()
        assert_same_dataset(read_embeddings(io.StringIO(text)), small_dataset())

    def test_json_missing_field_fails_like_short_row(self):
        short_csv = "id,label,m_1,m_2,s_1,s_2\na,x,1.0,2.0,-1.0\n"
        short_json = json.dumps({"records": [
            {"id": "a", "label": "x", "m_1": 1.0, "m_2": 2.0, "s_1": -1.0}]})
        messages = []
        for text in (short_csv, short_json):
            with pytest.raises(ValidationError) as err:
                read_embeddings(io.StringIO(text))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "embedding record 0: expected 6 fields, got 5"

    def test_json_extra_field_fails_like_long_row(self):
        # an extra m_2/s_2 pair is not dropped: the record is a long row
        long_csv = "id,label,m_1,s_1\na,x,1.0,-1.0\nb,x,1.0,-1.0,2.0,-1.0\n"
        long_json = json.dumps({"records": [
            {"id": "a", "label": "x", "m_1": 1.0, "s_1": -1.0},
            {"id": "b", "label": "x", "m_1": 1.0, "s_1": -1.0, "m_2": 2.0, "s_2": -1.0}]})
        messages = []
        for text in (long_csv, long_json):
            with pytest.raises(ValidationError) as err:
                read_embeddings(io.StringIO(text))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "embedding record 1: expected 4 fields, got 6"

    def test_json_header_counts_only_numbered_keys(self):
        # m_note is no numbered field, so the header is id,label,m_1,s_1 and
        # the record, holding all of it and m_note, is a long row
        text = json.dumps({"records": [
            {"id": "a", "label": None, "m_1": 0.0, "s_1": 0.0, "m_note": 0.0}]})
        with pytest.raises(ValidationError) as err:
            read_embeddings(io.StringIO(text))
        assert str(err.value) == "embedding record 0: expected 4 fields, got 5"

    def test_json_key_order_is_free(self):
        records = [{"s_1": -1.0, "m_1": 1.0, "label": "x", "id": "a"},
                   {"id": "b", "m_1": 2.0, "label": None, "s_1": -2.0}]
        ds = read_embeddings(io.StringIO(json.dumps({"records": records})))
        assert ds.ids == ("a", "b") and ds.labels == ("x", None)
        assert ds.means.tolist() == [[1.0], [2.0]] and ds.log_var.tolist() == [[-1.0], [-2.0]]

    def test_hash_id_round_trip(self):
        ds = make_dataset(
            ("x", "0", [0.0], [-1.0]),
            ("#y", "0", [1.0], [-1.5]),
            ("z", "1", [2.0], [-2.0]),
        )
        buf = io.StringIO()
        write_embeddings(ds, buf, "csv")
        back = read_embeddings(io.StringIO(buf.getvalue()))
        assert back.ids == ("x", "#y", "z")

    @pytest.mark.parametrize("text", [
        "",
        "id,m_1,s_1\na,1.0,-1.0\n",                     # missing label column
        "id,label,m_1,s_1\na,x,1.0\n",                  # short row
        "id,label,m_1,s_1\na,x,one,-1.0\n",             # non-numeric
        "id,label,m_1,s_1\n",                           # no records
    ])
    def test_csv_rejects(self, text):
        with pytest.raises(ValidationError):
            read_embeddings(io.StringIO(text))

    @pytest.mark.parametrize("row,what", [
        ("b,x,nan,-1.0", "mean"),
        ("b,x,1.0,inf", "log-variance"),
    ])
    def test_non_finite_names_record(self, row, what):
        text = f"id,label,m_1,s_1\na,x,1.0,-1.0\n{row}\n"
        with pytest.raises(ValidationError, match=f"record 'b': {what}"):
            read_embeddings(io.StringIO(text))

    def test_json_rejects(self):
        with pytest.raises(ValidationError):
            read_embeddings(io.StringIO('{"records": []}'))
        bad = '{"records": [{"id": "a", "label": null, "m_1": 1.0}]}'
        with pytest.raises(ValidationError):
            read_embeddings(io.StringIO(bad))
        # a non-string label would later fail to sort or hash into a group
        for label in ("5", "[\"y\"]", "true"):
            bad = f'{{"records": [{{"id": "a", "label": {label}, "m_1": 1.0, "s_1": 0.0}}]}}'
            with pytest.raises(ValidationError) as info:
                read_embeddings(io.StringIO(bad))
            # the value as JSON, as an id or a number cell is shown
            assert str(info.value) == ("embedding record 0: label must be a string or null, "
                                       f"got {label}")

    @pytest.mark.parametrize("field", ["m_1", "s_1"])
    def test_json_boolean_is_no_number(self, field):
        # float(True) is 1.0, so a JSON true would read as a number where the
        # CSV cell "true" does not
        record = {"id": "a", "label": "x", "m_1": 1.0, "s_1": -1.0, field: False}
        with pytest.raises(ValidationError,
                           match=f"^embedding record 0: {field} must be a number, got false$"):
            read_embeddings(io.StringIO(json.dumps({"records": [record]})))


class TestAssignmentIO:
    def test_csv(self):
        text = "id,p_1,p_2\na,0.3,0.7\nb,1.0,0.0\n"
        ids, ens = read_assignments(io.StringIO(text))
        assert ids == ["a", "b"]
        assert len(ens.table) == 2 and ens.n_states == 2
        assert np.array_equal(ens.table, [[0.3, 0.7], [1.0, 0.0]])

    def test_csv_hash_ids_after_header(self):
        text = "# exported\nid,p_1,p_2\nr1,0.5,0.5\n#r2,1,0\nr3,0,1\n"
        ids, ens = read_assignments(io.StringIO(text))
        assert ids == ["r1", "#r2", "r3"]
        assert np.array_equal(ens.table, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])

    def test_json(self):
        text = json.dumps({"records": [
            {"id": "a", "p_1": 0.25, "p_2": 0.75},
        ]})
        ids, ens = read_assignments(io.StringIO(text))
        assert ids == ["a"] and len(ens.table) == 1

    def test_json_missing_field_fails_like_short_row(self):
        for text in ("id,p_1,p_2\na,1.0\n",
                     json.dumps({"records": [{"id": "a", "p_1": 1.0, "p_3": 0.0},
                                             {"id": "b"}]})):
            with pytest.raises(ValidationError,
                               match="assignment record 0: expected 3 fields, got 2"):
                read_assignments(io.StringIO(text))

    def test_json_header_counts_only_numbered_keys(self, tmp_path):
        # p_note is no numbered field: the header is id,p_1 and the record a
        # long row, not a short row of a 3-field header
        text = json.dumps({"records": [{"id": "a", "p_1": 1, "p_note": 0}]})
        message = "assignment record 0: expected 2 fields, got 3"
        with pytest.raises(ValidationError) as err:
            read_assignments(io.StringIO(text))
        assert str(err.value) == message
        path = tmp_path / "assign.json"
        path.write_text(text)
        res = CliRunner().invoke(cli.main, ["assignments", "rrh", str(path)])
        assert res.exit_code == 3 and res.output == f"error: {message}\n"

    @pytest.mark.parametrize("text", [
        "id,p_1\na,1\nb,1,0.5\n",
        json.dumps({"records": [{"id": "a", "p_1": 1}, {"id": "b", "p_1": 1, "p_2": 0.5}]}),
        json.dumps({"records": [{"id": "a", "p_1": 1}, {"p_1": 1, "note": "x", "id": "b"}]}),
    ], ids=["csv", "json", "json-other-key"])
    def test_extra_field_is_a_long_row(self, tmp_path, text):
        # a JSON record keeps every key: an extra one is not dropped
        message = "assignment record 1: expected 2 fields, got 3"
        with pytest.raises(ValidationError) as info:
            read_assignments(io.StringIO(text))
        assert str(info.value) == message
        path = tmp_path / "assign"
        path.write_text(text)
        res = CliRunner().invoke(cli.main, ["assignments", "rrh", str(path)])
        assert res.exit_code == 3 and res.output == f"error: {message}\n"

    def test_json_boolean_is_no_number(self, tmp_path):
        rows = [{"id": "a", "p_1": 0.5, "p_2": 0.5}, {"id": "b", "p_1": True, "p_2": False}]
        with pytest.raises(ValidationError,
                           match="^assignment record 1: p_1 must be a number, got true$"):
            read_assignments(io.StringIO(json.dumps({"records": rows})))
        json_path, csv_path = tmp_path / "assign.json", tmp_path / "assign.csv"
        json_path.write_text(json.dumps({"records": rows}))
        csv_path.write_text("id,p_1,p_2\na,0.5,0.5\nb,true,false\n")
        for path in (json_path, csv_path):
            res = CliRunner().invoke(cli.main, ["assignments", "rrh", str(path)])
            assert res.exit_code == 3 and "assignment record 1: " in res.output

    @pytest.mark.parametrize("fmt,value,shown", [
        ("csv", "true", '"true"'), ("csv", "x", '"x"'),
        ("json", "x", '"x"'), ("json", None, "null"),
    ])
    def test_non_number_names_its_column(self, tmp_path, fmt, value, shown):
        rows = [{"id": "a", "p_1": 0.5, "p_2": 0.5}, {"id": "b", "p_1": 0.5, "p_2": value}]
        text = (json.dumps({"records": rows}) if fmt == "json"
                else f"id,p_1,p_2\na,0.5,0.5\nb,0.5,{value}\n")
        message = f"assignment record 1: p_2 must be a number, got {shown}"
        with pytest.raises(ValidationError) as info:
            read_assignments(io.StringIO(text))
        assert str(info.value) == message
        path = tmp_path / "assign"
        path.write_text(text)
        res = CliRunner().invoke(cli.main, ["assignments", "rrh", str(path)])
        assert res.exit_code == 3 and res.output == f"error: {message}\n"

    @pytest.mark.parametrize("text", [
        "",
        "id,q_1\na,1.0\n",                # wrong header
        "id,p_1,p_2\na,0.3\n",            # short row
        "id,p_1,p_2\na,0.6,0.6\n",        # row does not sum to one
    ])
    def test_rejects(self, text):
        with pytest.raises(ValidationError):
            read_assignments(io.StringIO(text))


# reader, command and the other fields of a valid record, per file kind
_JSON_READERS = {
    "embedding": (read_embeddings, ["embeddings", "neighborhoods", "--k", "1", "--top", "4"],
                  {"label": "x", "m_1": 0.0, "s_1": -1.0}),
    "assignment": (read_assignments, ["assignments", "rrh"], {"p_1": 0.5, "p_2": 0.5}),
}


@pytest.mark.parametrize("what", sorted(_JSON_READERS))
class TestJsonIds:
    """A JSON id is a string, or an integer (not a bool) read as its decimal
    digits; any other value is named by its record, as JSON."""

    @pytest.mark.parametrize("rid,shown", [
        (None, "null"), (True, "true"), (False, "false"), (1.5, "1.5"), (1e2, "100.0"),
        ([1, 2], "[1, 2]"), ({"a": 1}, '{"a": 1}'),
    ])
    def test_other_values_exit_3(self, tmp_path, what, rid, shown):
        read, command, fields = _JSON_READERS[what]
        text = json.dumps({"records": [{"id": "a", **fields}, {"id": rid, **fields}]})
        message = f"{what} record 1: id must be a string or an integer, got {shown}"
        with pytest.raises(ValidationError) as info:
            read(io.StringIO(text))
        assert str(info.value) == message
        path = tmp_path / "ids.json"
        path.write_text(text)
        res = CliRunner().invoke(cli.main, [*command, str(path)])
        assert res.exit_code == 3 and res.output == f"error: {message}\n"

    def test_integer_reads_as_its_digits(self, tmp_path, what):
        read, command, fields = _JSON_READERS[what]
        rids = [0, -7, 12345678901234567890, "s"]
        records = [{"id": rid, **fields, **({"m_1": float(i)} if "m_1" in fields else {})}
                   for i, rid in enumerate(rids)]
        text = json.dumps({"records": records})
        got = read(io.StringIO(text))
        ids = got.ids if what == "embedding" else got[0]
        assert list(ids) == ["0", "-7", "12345678901234567890", "s"]
        path = tmp_path / "ids.json"
        path.write_text(text)
        res = CliRunner().invoke(cli.main, [*command, str(path)])
        assert res.exit_code == 0, res.output
        if what == "embedding":  # the neighborhood table prints the ids
            assert {line.split(",")[2] for line in res.output.splitlines()
                    if line[:1] in "hl"} == {"0", "-7", "12345678901234567890", "s"}


def _spelled(value):
    """Ways a CSV cell may spell the float ``value``."""
    return st.sampled_from([repr(value), f" {value!r}", f"{value!r}  ", f'"{value!r}"',
                            f"{value:.3e}", f"{value:+}"])


# cells that numpy or float() may read otherwise, or that hold no number
_ODD_CELLS = ["inf", "-Infinity", "nan", " -inf ", "NaN", "1_0", "١", "\xa01", "", "x",
              "1e", "1 2", "0x1", '"1,5"', "1\x00", '"a\r\nb"', '"', " ", "\t"]
# a text cell, mostly quoted
_TEXT_CELL = _ID_TEXT.flatmap(
    lambda raw: st.sampled_from(['"' + raw.replace('"', '""') + '"'] * 3 + [raw]))


def _csv_table(header, n_text, numbers):
    """CSV text under ``header``: after an optional comment, one to five
    records of ``n_text`` text cells and cells spelling a draw of
    ``numbers``, with mixed line ends. Now and then a record has one fault:
    an odd cell, a cell too few or too many, or it is a blank or
    whitespace-only line."""
    def line(text, values, fault, odd, at):
        cells = text + values
        if fault == "blank":
            return odd if odd.isspace() else ""
        if fault == "odd":
            cells[at % len(cells)] = odd
        return ",".join(cells + [odd] if fault == "long" else
                        cells[:-1] if fault == "short" else cells)
    record = st.builds(
        line, st.lists(_TEXT_CELL, min_size=n_text, max_size=n_text),
        numbers.flatmap(lambda values: st.tuples(*map(_spelled, values))).map(list),
        st.sampled_from([None] * 12 + ["odd", "short", "long", "blank"]),
        st.sampled_from(_ODD_CELLS), st.integers(0, 8))
    lines = st.lists(st.tuples(record, st.sampled_from(["\n", "\r\n", "\r"])).map("".join),
                     min_size=1, max_size=5)
    return st.builds(lambda comment, body: comment + ",".join(header) + "\n" + "".join(body),
                     st.sampled_from(["", "# comment\n"]), lines)


# a distribution over two states, and a mean and a log-variance
_ASSIGNMENT_ROW = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]).map(lambda p: (p, 1.0 - p))
_EMBEDDING_ROW = st.tuples(st.floats(-1e6, 1e6), st.floats(-5.0, 5.0))


def _outcome(read, text, newline):
    """What ``read`` gives for ``text``: its result, or the ValidationError text."""
    try:
        return read(io.StringIO(text, newline=newline))
    except ValidationError as exc:
        return str(exc)


def _bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.int64).tolist()


class TestCsvIngestion:
    """CSV bodies are converted by one np.loadtxt pass; the result, or the
    error that names the first bad record, is that of reading the file one
    record at a time through csv.reader and float()."""

    @settings(max_examples=300, deadline=None)
    @given(text=_csv_table(["id", "p_1", "p_2"], 1, _ASSIGNMENT_ROW),
           newline=st.sampled_from(["", None]))
    def test_assignments_match_record_loop(self, text, newline):
        got = _outcome(read_assignments, text, newline)
        want = _outcome(read_assignments_loop, text, newline)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0] and _bits(got[1].table) == _bits(want[1].table)

    @settings(max_examples=300, deadline=None)
    @given(text=_csv_table(["id", "label", "m_1", "s_1"], 2, _EMBEDDING_ROW),
           newline=st.sampled_from(["", None]))
    def test_embeddings_match_record_loop(self, text, newline):
        got = _outcome(read_embeddings, text, newline)
        want = _outcome(read_embeddings_loop, text, newline)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.ids == want.ids and got.labels == want.labels
            assert _bits(got.means) == _bits(want.means)
            assert _bits(got.log_var) == _bits(want.log_var)

    def test_blank_line_is_an_empty_record(self):
        # np.loadtxt would skip it
        text = "id,p_1,p_2\na,0.5,0.5\n\nb,0.5,0.5\n"
        with pytest.raises(ValidationError) as err:
            read_assignments(io.StringIO(text))
        assert str(err.value) == "assignment record 1: expected 3 fields, got 0"

    def test_whitespace_line_is_a_short_record(self):
        text = "id,p_1,p_2\na,0.5,0.5\n \t\nb,0.5,0.5\n"
        with pytest.raises(ValidationError) as err:
            read_assignments(io.StringIO(text))
        assert str(err.value) == "assignment record 1: expected 3 fields, got 1"

    def test_cells_only_float_reads(self):
        # numpy rejects digit separators and non-ASCII digits; float() takes them
        ds = read_embeddings(io.StringIO("id,label,m_1,s_1\na,x,1_0,١\n"))
        assert ds.means.tolist() == [[10.0]] and ds.log_var.tolist() == [[1.0]]

    def test_long_field_names_its_record(self):
        big = "x" * 200_000  # over csv.field_size_limit()
        text = f"id,p_1,p_2\na,1,0\n{big},1,0\nc,1\n"
        with pytest.raises(ValidationError) as err:
            read_assignments(io.StringIO(text))
        assert str(err.value) == "assignment record 1: field larger than field limit (131072)"
        with pytest.raises(ValidationError, match="^assignment header: field larger"):
            read_assignments(io.StringIO(f"id,p_1,{big}\na,1\n"))
        # quotes carry a long id over line breaks into lines that are all short
        quoted = '"' + ("x" * 100 + "\n") * 2000 + '"'
        for body in (f"a,1,0\n{quoted},1,0\n", f"a,1,0\n{quoted},1,0\nc,1\n"):
            with pytest.raises(ValidationError) as err:
                read_assignments(io.StringIO("id,p_1,p_2\n" + body, newline=""))
            assert str(err.value) == \
                "assignment record 1: field larger than field limit (131072)"
        short = '"' + ("x" * 100 + "\n") * 20 + '"'
        ids, _ = read_assignments(io.StringIO(f"id,p_1,p_2\n{short},1,0\n", newline=""))
        assert ids == [short[1:-1]]

    def test_long_line_check_matches_split(self):
        rng = np.random.default_rng(45)
        for _ in range(3000):
            body = "".join(rng.choice(list("ab\n"), size=rng.integers(0, 60),
                                      p=[0.45, 0.45, 0.1]))
            limit = int(rng.integers(0, 25))
            assert ingest._has_long_line(body, limit) == \
                (max(map(len, body.split("\n"))) > limit), (body, limit)

    def test_line_count_matches_splitlines(self):
        rng = np.random.default_rng(46)
        for _ in range(3000):
            body = "".join(rng.choice(list("ab\n\r"), size=rng.integers(1, 40),
                                      p=[0.4, 0.4, 0.1, 0.1]))
            assert ingest._line_count(body) == len(body.splitlines()), body

    def test_quoted_line_break_takes_the_record_loop(self, monkeypatch):
        # np.loadtxt reads the record too; one record on two lines is counted
        # as fewer records than lines, which sends the body to csv.reader
        calls = []
        inner = ingest._table_rows
        monkeypatch.setattr(ingest, "_table_rows",
                            lambda *args: calls.append(args) or inner(*args))
        ids, _ = read_assignments(io.StringIO('id,p_1,p_2\n"a\nb",1,0\nc,0,1\n', newline=""))
        assert ids == ["a\nb", "c"] and len(calls) == 1

    @staticmethod
    def benchmark_shaped(rows):
        """An assignment CSV and an embedding CSV as the benchmark writes them."""
        rng = np.random.default_rng(5)
        table = rng.dirichlet(np.full(10, 0.7), size=rows)
        assign = "id," + ",".join(f"p_{j}" for j in range(1, 11)) + "\n" + "".join(
            f"a{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(table.tolist()))
        values = np.hstack([rng.normal(0, 10, (rows, 4)), rng.uniform(-2.5, -0.5, (rows, 4))])
        emb = ("id,label," + ",".join([f"m_{j}" for j in range(1, 5)]
                                      + [f"s_{j}" for j in range(1, 5)]) + "\n" + "".join(
            f"e{i},L{i % 12:02d}," + ",".join(map(repr, row)) + "\n"
            for i, row in enumerate(values.tolist())))
        return assign, emb

    def test_valid_input_takes_the_bulk_pass(self, monkeypatch):
        assign, emb = self.benchmark_shaped(2000)
        want_ids, want = read_assignments_loop(io.StringIO(assign, newline=""))
        want_ds = read_embeddings_loop(io.StringIO(emb, newline=""))

        def no_loop(*args):
            raise AssertionError("a valid CSV body went through the record loop")
        monkeypatch.setattr(ingest, "_table_rows", no_loop)
        ids, ens = read_assignments(io.StringIO(assign, newline=""))
        ds = read_embeddings(io.StringIO(emb, newline=""))
        assert ids == want_ids and _bits(ens.table) == _bits(want.table)
        assert ds.ids == want_ds.ids and ds.labels == want_ds.labels
        assert _bits(ds.means) == _bits(want_ds.means)
        assert _bits(ds.log_var) == _bits(want_ds.log_var)
        for array in (ens.table, ds.means, ds.log_var):
            assert array.dtype == np.float64 and array.flags.c_contiguous


class TestSweepResult:
    def make(self):
        return SweepResult(columns={"a": np.array([1.0, math.nan]),
                                    "b": (None, "x"),
                                    "c": np.array([False, True]),
                                    "d": np.array([3, -4])},
                           metadata={"command": "demo", "n": 2})

    def test_csv(self):
        text = to_text(self.make(), "csv")
        lines = text.splitlines()
        assert lines[0] == "# command=demo"
        assert lines[1] == "# n=2"
        assert lines[2] == "a,b,c,d"
        assert lines[3] == "1,,false,3"
        assert lines[4] == ",x,true,-4"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.none() | _ID_TEXT, min_size=n, max_size=n), min_size=1, max_size=4)))
    def test_csv_text_matches_csv_writer(self, rows):
        # comma-joined rows of cells quoted where they need it, and a lone
        # empty cell as "": the text a csv.writer per row gives, one-column
        # tables included
        columns = {f"c{j}": [row[j] for row in rows] for j in range(len(rows[0]))}
        buf = io.StringIO()
        SweepResult(columns=columns, metadata={}).write(buf)
        cells = [["" if v is None else v for v in row] for row in rows]
        assert buf.getvalue() == csv_text_per_row([list(columns), *cells])

    def test_json(self):
        payload = json.loads(to_text(self.make(), "json"))
        assert payload["columns"] == ["a", "b", "c", "d"]
        assert payload["rows"][0] == [1.0, None, False, 3]
        assert payload["rows"][1] == [None, "x", True, -4]
        assert payload["metadata"] == {"command": "demo", "n": 2}

    # grid-shaped columns, each broadcast to the table shape when written
    GRID_TABLES = {
        "mixed": {
            "x": np.array([[1.0], [math.nan], [-0.0]]),
            "y": np.array([math.inf, -math.inf, 1e300, 1.0 / 3.0]),
            "flag": np.array([True, False, True, False]),
            "n": np.array([[3], [-4], [0]]),
            "full": np.arange(12.0).reshape(3, 4) / 7.0,
            "s": 2.5, "k": 7, "t": True, "nan": math.nan, "inf": -math.inf,
        },
        "three-d": {"a": np.array([[[0.1]], [[math.nan]]]), "b": np.array([[1, 2, 3]]),
                    "c": np.array([False, True, True])},
        "scalars": {"a": 1e300, "b": -0.0, "c": False},
        "single": {"v": np.array([[math.nan], [1.0]])},
        "length-1": {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([math.inf])},
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(GRID_TABLES))
    def test_broadcast_columns_write_as_raveled(self, name, fmt):
        columns = self.GRID_TABLES[name]
        shape = np.broadcast_shapes(*map(np.shape, columns.values()))
        raveled = {key: np.broadcast_to(col, shape).ravel() for key, col in columns.items()}
        meta = {"command": "demo", "q": math.inf}
        text = to_text(SweepResult(columns=columns, metadata=meta), fmt)
        assert text == to_text(SweepResult(columns=raveled, metadata=meta), fmt)
        if name == "single" and fmt == "csv":
            assert text.splitlines()[-2:] == ['""', "1"]
        if name == "length-1" and fmt == "csv":
            assert text.splitlines()[-3:] == ["1,inf", "2,inf", "3,inf"]

    @pytest.mark.parametrize("columns,message", [
        ({"a": np.array([1.0, 2.0, 3.0]), "b": np.array([1.0, 2.0])},
         "column 'b' of shape (2,) does not broadcast against the table shape (3,)"),
        ({"a": np.zeros((2, 3)), "b": np.zeros((3, 2))},
         "column 'b' of shape (3, 2) does not broadcast"),
        ({"a": np.array([1.0, 2.0, 3.0]), "b": ["x"]}, "text column 'b' has 1 cells for 3 rows"),
        ({"a": [1.0, 2.0, 3.0], "b": [1.0]}, "text column 'b' has 1 cells for 3 rows"),
        ({"a": np.zeros((3, 1)), "b": ["x", "y", "z"]},
         "text column 'b' has 3 cells for 9 rows"),
        ({"a": ("x", "y"), "b": 1.0, "c": ("z",)}, "text column 'c' has 1 cells for 2 rows"),
    ])
    def test_columns_that_do_not_fit_are_refused(self, columns, message):
        # a table is never cut to its shortest column
        with pytest.raises(ValidationError) as err:
            SweepResult(columns=columns, metadata={})
        assert str(err.value).startswith(message)

    def test_text_column_sets_a_scalar_table_length(self):
        table = SweepResult(columns={"id": ["a", "b"], "v": 0.5}, metadata={})
        assert to_text(table, "csv") == "id,v\na,0.5\nb,0.5\n"

    def test_unknown_format(self):
        with pytest.raises(ValidationError, match="unknown format"):
            self.make().write(io.StringIO(), "xml")
        with pytest.raises(ValidationError, match="unknown format"):
            write_embeddings(small_dataset(), io.StringIO(), "xml")


class TestSynth:
    def test_deterministic(self):
        a = synth_embeddings(3, 4, 2, seed=7)
        b = synth_embeddings(3, 4, 2, seed=7)
        assert a.ids == b.ids and a.labels == b.labels
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.log_var, b.log_var)

    def test_seed_changes_data(self):
        a = synth_embeddings(3, 4, 2, seed=7)
        b = synth_embeddings(3, 4, 2, seed=8)
        assert not np.allclose(a.means[0], b.means[0])

    def test_shapes_and_labels(self):
        ds = synth_embeddings(3, 5, 2, seed=0)
        assert len(ds) == 15 and ds.n_z == 2
        assert ds.means.shape == ds.log_var.shape == (15, 2)
        assert ds.ids[0] == "0-0" and ds.ids[-1] == "2-4"
        assert ds.labels == ("0",) * 5 + ("1",) * 5 + ("2",) * 5

    def test_contraction_shrinks_mean_spread_only(self):
        base = synth_embeddings(2, 200, 2, seed=3)
        contracted = synth_embeddings(2, 200, 2, seed=3, contract_label=1,
                                      contract_factor=10.0)
        def spread(ds, lab):
            pts = ds.means[np.array(ds.labels) == lab]
            return pts.std(axis=0).mean()
        assert spread(contracted, "0") == pytest.approx(spread(base, "0"), rel=1e-6, abs=0)
        assert spread(contracted, "1") == pytest.approx(spread(base, "1") / 10.0,
                                                        rel=1e-9, abs=0)
        assert np.array_equal(base.log_var, contracted.log_var)

    def test_validation(self):
        with pytest.raises(ValidationError):
            synth_embeddings(0, 5, 2, seed=0)
        with pytest.raises(ValidationError):
            synth_embeddings(2, 5, 2, seed=0, contract_label=5)
        with pytest.raises(ValidationError):
            synth_embeddings(2, 5, 2, seed=0, log_var_range=(0.0, -1.0))
        # numpy raises ValueError on a negative seed and OverflowError when
        # high - low leaves the float range
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            synth_embeddings(1, 1, 1, seed=-1)
        for lo, hi in [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0)]:
            with pytest.raises(ValidationError, match="finite width"):
                synth_embeddings(1, 1, 1, seed=0, log_var_range=(lo, hi))
        with pytest.raises(ValidationError, match="separation/spread"):
            synth_embeddings(2, 5, 2, seed=0, separation=-1.0)


class TestGroupDecomposition:
    def test_identity_and_columns(self):
        ds = make_dataset(*(r for r in SMALL if r[1] is not None))
        res = group_decomposition(ds, [1.0, 2.0])
        cols = res.columns
        assert list(cols) == ["label", "n", "q", "pooled", "within", "between", "singleton"]
        assert cols["pooled"] == pytest.approx(cols["within"] * cols["between"],
                                               rel=1e-9, abs=0)
        assert not cols["singleton"].any()

    def test_singleton_group(self):
        ds = make_dataset(
            ("a", "0", [0.0], [-1.0]),
            ("b", "1", [1.0], [-1.0]),
            ("c", "1", [2.0], [-1.0]),
        )
        cols = group_decomposition(ds, [1.0]).columns
        assert cols["label"][0] == "0" and cols["singleton"].tolist() == [True, False]
        assert cols["pooled"][0] == gaussian_renyi(np.array([math.exp(-1.0)]), 1.0)
        assert cols["within"][0] == cols["pooled"][0] and cols["between"][0] == 1.0

    def test_missing_label_rejected(self):
        with pytest.raises(ValidationError):
            group_decomposition(small_dataset(), [1.0])

    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_orders_outside_zero_to_inf_rejected(self, q):
        ds = make_dataset(*(r for r in SMALL if r[1] is not None))
        with pytest.raises(UndefinedOrderError):
            group_decomposition(ds, [1.0, q])

    def test_inf_decomposes(self):
        # within takes its q = inf limit, so pooled = within * between holds there too
        ds = make_dataset(*(r for r in SMALL if r[1] is not None))
        cols = group_decomposition(ds, [2.0, math.inf]).columns
        assert cols["q"].tolist() == [2.0, math.inf] * (len(cols["q"]) // 2)
        assert np.all(cols["within"] > 0.0)
        assert cols["pooled"] == pytest.approx(cols["within"] * cols["between"],
                                               rel=1e-15, abs=0)
        for label in set(cols["label"]):
            idx = [i for i, lab in enumerate(ds.labels) if lab == label]
            row = cols["label"].index(label) + 1
            assert cols["within"][row] == pytest.approx(
                gaussian_within(ds.ensemble(idx), math.inf), rel=1e-14, abs=0)

    def test_whole_dataset_mode(self):
        res = group_decomposition(small_dataset(), [1.0], group_by_label=False)
        assert res.columns["label"] == ["*"]

    def test_identical_records_give_between_one(self):
        # Three identical records far from the origin relative to their
        # spread pool to the record itself, so between is 1 (it was
        # 1.00000234948 while the pool cancelled mu_i mu_i^T against mu* mu*^T).
        # The ratios |Sigma_i| / |Sigma*| are then exactly 1 at every order.
        ds = make_dataset(*((rid, "g", [0.25] * 80, [-23.0] * 80) for rid in "abc"))
        orders = [0.5, 1.0 - 2.0 ** -53, 1.0, 1.001, 2.0, 7.5, math.inf]
        between = group_decomposition(ds, orders).columns["between"]
        assert between.tolist() == [1.0] * 7
        text = io.StringIO()
        group_decomposition(ds, orders).write(text, "csv")
        assert [row.split(",")[5] for row in text.getvalue().splitlines()[5:]] == ["1"] * 7


class TestNeighborhoods:
    def test_k_bounds(self):
        ds = small_dataset()
        with pytest.raises(ValidationError):
            neighborhood_between(ds, 0, 1.0)
        with pytest.raises(ValidationError):
            neighborhood_between(ds, 5, 1.0)
        with pytest.raises(ValidationError, match="top must be >= 1"):
            neighborhood_sweep(ds, 2, 1.0, top=0)

    def test_identical_records_give_one(self):
        ds = make_dataset(*(
            (f"r{i}", None, [1.0, 2.0], [-1.0, -1.0]) for i in range(4)))
        for q in (0.5, 1.0 - 2.0 ** -53, 1.0, 1.001, 2.0, 7.5, math.inf):
            assert neighborhood_between(ds, 3, q).tolist() == [1.0] * 4

    def test_tie_order_ascending_index(self):
        # identical records: every score ties, so both lists follow index order
        ds = make_dataset(*(
            (f"r{i}", None, [1.0, 2.0], [-1.0, -1.0]) for i in range(5)))
        cols = neighborhood_sweep(ds, 2, 1.0, top=3).columns
        assert len(set(cols["between"].tolist())) == 1
        assert cols["kind"] == ["high"] * 3 + ["low"] * 3
        assert cols["id"] == ["r0", "r1", "r2"] * 2
        assert cols["rank"].tolist() == [1, 2, 3] * 2

    def test_builds_at_most_one_component_per_record(self, monkeypatch):
        # members and pools stay in arrays: one stacked ensemble of all
        # neighborhoods and one stacked pool per call
        built, gathered = [], []
        original_pool = GaussianComponent.__post_init__
        original_ensemble = EmbeddingDataset.ensemble

        def counted_pool(self):
            built.append(1)
            original_pool(self)

        def counted_ensemble(self, *args):
            gathered.append(1)
            return original_ensemble(self, *args)
        monkeypatch.setattr(GaussianComponent, "__post_init__", counted_pool)
        monkeypatch.setattr(EmbeddingDataset, "ensemble", counted_ensemble)
        ds = synth_embeddings(2, 10, 2, seed=1)
        neighborhood_between(ds, 4, 1.0)
        assert len(built) == 1 and len(gathered) == 1

    @pytest.mark.parametrize("nz", [1, 2])
    def test_matches_per_record_loop(self, nz):
        # nz = 1 pools every neighborhood to a 1 x 1 (diagonal) covariance.
        # The added records repeat a mean with new log-variances, so they tie
        # on distance with their originals and the tie order moves the values.
        base = synth_embeddings(3, 6, nz, seed=nz)
        dup = [0, 7, 7, 12]
        ds = EmbeddingDataset(
            ids=base.ids + tuple(f"dup{i}" for i in range(len(dup))),
            labels=base.labels + tuple(base.labels[i] for i in dup),
            means=np.concatenate([base.means, base.means[dup]]),
            log_var=np.concatenate([base.log_var,
                                    base.log_var[dup] - 0.3 * np.arange(1, 5)[:, None]]))
        for k in (1, 4, len(ds) - 1):
            for q in (0.5, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 7.5):
                got = neighborhood_between(ds, k, q)
                ref = neighborhood_between_loop(ds, k, q)
                assert got == pytest.approx(ref, rel=1e-13, abs=0), (k, q)

    @pytest.mark.parametrize("ties,offset", [
        pytest.param(False, 0.0, id="False"), pytest.param(True, 0.0, id="True"),
        pytest.param(True, 1e6 + 1 / 3, id="far-from-origin ties")])
    def test_members_match_stable_sort(self, ties, offset, monkeypatch):
        # More records than one block of rows. With ties, means on a small
        # integer grid repeat, so equal distances fall on both sides of
        # position k and the index tie-break decides the members. Far from
        # the origin the differences stay exact integers, but the squares
        # near 10^12 that estimate the squared distances (0 to 18) round
        # off by up to about 10^-4; the fraction 1/3 makes them round.
        if ties:
            rng = np.random.default_rng(44)
            ds = EmbeddingDataset(ids=[f"r{i}" for i in range(300)], labels=[None] * 300,
                                  means=rng.integers(0, 4, size=(300, 2)) + offset,
                                  log_var=np.zeros((300, 2)))
        else:
            ds = synth_embeddings(10, 100, 2, seed=1)
        seen = []
        original = EmbeddingDataset.ensemble

        def spy(self, indices=None):
            seen.append(np.asarray(indices))
            return original(self, indices)
        monkeypatch.setattr(EmbeddingDataset, "ensemble", spy)
        for k in (1, 7, 49, len(ds) - 1):
            neighborhood_between(ds, k, 1.0)
            want = np.stack([neighborhood_members(ds.means, i, k) for i in range(len(ds))])
            # the members are pooled in ascending record order
            assert np.array_equal(seen.pop(), np.sort(want, axis=1)), k

    def test_equal_member_sets_give_equal_values(self):
        # p, q and t each have the neighborhood {p, q, t}; pooled in the
        # order of distance, q came out 1 ulp above p and t
        ds = make_dataset(("p", None, [0.0, 0.0], [-1.0, -1.0]),
                          ("q", None, [1.0, 0.0], [-1.5, -1.0]),
                          ("r", None, [0.0, 2.0], [-1.0, -2.0]),
                          ("s", None, [4.0, 4.0], [-0.5, -1.0]),
                          ("t", None, [1.0, 1.0], [-1.0, -1.0]))
        for q in (0.5, 1.0, 2.0, math.inf):
            vals = neighborhood_between(ds, 2, q)
            assert vals[0] == vals[1] == vals[4], q
        cols = neighborhood_sweep(ds, 2, 1.0, top=2).columns
        assert cols["id"][2:] == ["p", "q"]

    def test_two_cluster_contrast(self):
        # points inside a tight cluster see low between-heterogeneity;
        # a bridge point pulling in the far cluster sees more
        ds = small_dataset()
        vals = neighborhood_between(ds, 1, 1.0)
        assert vals[0] < vals[4]

    def test_sweep_shape(self):
        ds = synth_embeddings(2, 10, 2, seed=1)
        cols = neighborhood_sweep(ds, 3, 1.0, top=4).columns
        assert cols["kind"] == ["high"] * 4 + ["low"] * 4
        highs = cols["between"][:4].tolist()
        lows = cols["between"][4:].tolist()
        assert highs == sorted(highs, reverse=True)
        assert lows == sorted(lows)
        assert min(highs) >= max(lows)


class TestCliSweeps:
    def run(self, args, **kw):
        return CliRunner().invoke(cli.main, args, **kw)

    def test_three_state_sweep_csv(self):
        res = self.run(["three-state-sweep", "--grid", "0.5,1.0",
                        "--kappa", "1,10", "--q", "1,2,inf", "--u", "1"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        header_i = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_i] == "h,b,kappa,q,u,qe,fhn,lci,rrh,metric,ultrametric"
        assert len(lines) == header_i + 1 + 2 * 2 * 3
        # q=inf rows leave the functional-Hill cell empty
        inf_rows = [l for l in lines if ",inf," in l]
        assert inf_rows and all(l.split(",")[6] == "" for l in inf_rows)

    @pytest.mark.parametrize("args", [
        ["bmm-sweep", "--grid", "0.5", "--q", "inf"],
        ["three-state-sweep", "--grid", "1", "--kappa", "inf", "--q", "1"],
        ["three-state-sweep", "--grid", "1", "--kappa", "0", "--q", "1"],
    ], ids=["bmm-q-inf", "point-mass-kappa-inf", "point-mass-kappa-0"])
    def test_undefined_fhn_is_an_empty_cell(self, args):
        csv_res = self.run(args)
        assert csv_res.exit_code == 0, csv_res.output
        lines = [l for l in csv_res.output.splitlines() if not l.startswith("#")]
        header, row = lines[0].split(","), lines[1].split(",")
        assert row[header.index("fhn")] == ""
        json_res = self.run(args + ["--format", "json"])
        assert json_res.exit_code == 0, json_res.output
        payload = json.loads(json_res.output)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["fhn"] is None
        assert all(v is not None for k, v in row.items() if k not in ("fhn", "neqrqe"))

    def test_three_state_even_probs_rrh(self):
        res = self.run(["three-state-sweep", "--grid", "1.0", "--kappa", "1",
                        "--q", "1", "--format", "json"])
        payload = json.loads(res.output)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        assert row["rrh"] == pytest.approx(3.0, rel=1e-6, abs=0)
        assert row["fhn"] == pytest.approx(3.0, rel=1e-6, abs=0)

    def test_bmm_sweep_optimal(self):
        res = self.run(["bmm-sweep", "--grid", "0.5,0.7", "--q", "1,2",
                        "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["columns"] == ["theta1", "theta2", "theta3", "q", "u",
                                      "tau", "rrh", "fhn", "neqrqe", "lci"]
        rows = [dict(zip(payload["columns"], r)) for r in payload["rows"]]
        first = rows[0]
        assert first["q"] == 1 and first["rrh"] == pytest.approx(2.0, abs=1e-9)
        assert first["neqrqe"] is None
        q2 = [r for r in rows if r["q"] == 2]
        assert all(r["neqrqe"] is not None for r in q2)

    def test_bmm_sweep_tau_grid(self):
        res = self.run(["bmm-sweep", "--tau-mode", "grid", "--grid",
                        "0.1:0.9:0.2", "--theta1", "0.5", "--q", "1",
                        "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["columns"] == ["theta1", "theta2", "theta3", "tau", "q", "rrh"]
        rrh = [r[5] for r in payload["rows"]]
        assert len(rrh) == 5
        assert all(1.0 - 1e-9 <= v <= 2.0 + 1e-9 for v in rrh)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the beta continued fraction "
                       "does not converge for Beta(1e6, 1e6) at x = 0.5, which exits 4")
    def test_bmm_sweep_tau_grid_at_large_shapes(self):
        # two copies of Beta(1e6, 1e6) split at their mean: each tail is 1/2,
        # so the mass is (1/2, 1/2) and rrh is 2 at every order
        res = self.run(["bmm-sweep", "--tau-mode", "grid", "--theta1", "0.5",
                        "--theta2", "1e6", "--theta3", "1e6", "--grid", "0.5"])
        assert res.exit_code == 0, res.output
        assert [line.split(",")[-1] for line in res.output.splitlines()[-2:]] == ["2", "2"]

    def test_bmm_sweep_tau_grid_one_mass_per_tau(self, monkeypatch):
        # the assignment mass takes one beta_tails call per component, each
        # over the tau grid alone: 2 taus x 4 orders make 2 calls, not 4 or 32
        calls = []
        inner = betamix.beta_tails
        assert inner is special.beta_tails

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(betamix, "beta_tails", counting)
        res = self.run(["bmm-sweep", "--tau-mode", "grid", "--grid", "0.2,0.5",
                        "--q", "0,1,2,inf"])
        assert res.exit_code == 0
        assert len(calls) == 2
        assert [np.shape(args[0]) for args in calls] == [(2,), (2,)]

    def test_bmm_sweep_tau_grid_reads_tails_below_an_ulp_of_one(self):
        # each component keeps a tail smaller than an ulp of 1 past both
        # thresholds (scipy betainc: 3.0e-26 below 1e-6 and betaincc: 1.3e-41
        # above 1 - 1e-9), so the support count is 2 at both
        res = self.run(["bmm-sweep", "--tau-mode", "grid", "--grid", "0.000001,0.999999999",
                        "--theta1", "0.3", "--q", "0", "--format", "json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert [r[5] for r in payload["rows"]] == [2, 2]

    @pytest.mark.parametrize("args", [
        ["--theta2", "1e306"], ["--theta3", "1e306"],
        ["--tau-mode", "grid", "--theta2", "1e306"], ["--tau-mode", "grid", "--theta3", "1e306"],
    ])
    def test_bmm_sweep_shape_past_log_gamma_range_exits_4(self, args):
        res = self.run(["bmm-sweep", "--grid", "0.5", *args])
        assert res.exit_code == 4, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error: log_gamma(1e+306) overflows" in res.output

    def test_bmm_sweep_infinite_lci_warns_nothing(self):
        # exp(-1e308 D) is 0 off the diagonal and (Sp)_i may be 0: log 0 = -inf
        res = self.run(["bmm-sweep", "--grid", "0.5", "--u", "1e308"])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        assert [line.split(",")[-1] for line in res.stdout.splitlines()[-2:]] == ["inf", "inf"]

    def test_bmm_sweep_distance_overflow_exits_4(self):
        res = self.run(["bmm-sweep", "--grid", "0.5", "--theta2", "12",
                        "--theta3", "150", "--q", "1"])
        assert res.exit_code == 4
        assert "overflows" in res.output

    @pytest.mark.parametrize("args", [
        ["three-state-sweep", "--grid", "nan:1:0.1"],
        ["three-state-sweep", "--grid", "0:inf:1"],
        ["three-state-sweep", "--grid", "0.1:1:nan"],
        ["three-state-sweep", "--grid", "0.5:1:inf"],
        ["bmm-sweep", "--grid", "0.5:inf:0.1"],
        ["three-state-sweep", "--grid", "0:1e300:1e-300"],  # finite parts, inf steps
    ])
    def test_non_finite_grid_range_is_a_usage_error(self, args):
        res = self.run(args)
        assert res.exit_code == 2, res.output
        assert "must be finite" in res.output

    @pytest.mark.parametrize("u", ["nan", "inf", "-inf", "-1"])
    def test_bmm_u_out_of_range_is_a_usage_error(self, u):
        res = self.run(["bmm-sweep", "--grid", "0.5", "--u", u])
        assert res.exit_code == 2, res.output
        assert "--u" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("option,value", [
        ("--u", "-1"), ("--u", "0.5,-0.5"), ("--u", "nan"), ("--u", "inf"),
        ("--grid", "0"), ("--grid", "1,-1"), ("--grid", "-1:1:0.5"), ("--grid", "0:1:0.5"),
        ("--kappa", "-1"), ("--q", "-1"), ("--q", "1,-2,-3"), ("--q", "-1:1:0.5"),
        ("--q", "1,nan"), ("--q", "1,x"), ("--q", ","), ("--q", "1:2"),
    ])
    def test_three_state_out_of_range_is_a_usage_error(self, option, value):
        args = {"--grid": "1", option: value}
        res = self.run(["three-state-sweep", *(t for kv in args.items() for t in kv)])
        assert res.exit_code == 2, res.output
        assert option in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("b", ["nan", "inf", "-inf", "0", "-1"])
    def test_b_out_of_range_is_a_usage_error(self, b):
        res = self.run(["three-state-sweep", "--grid", "1", "--b", b])
        assert res.exit_code == 2, res.output
        assert "--b" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("args,option", [
        (["--theta2", "-1"], "--theta2"), (["--theta2", "inf"], "--theta2"),
        (["--theta3", "0"], "--theta3"), (["--q", "-1"], "--q"),
        (["--tau-mode", "grid", "--theta1", "1.5"], "--theta1"),
        (["--tau-mode", "grid", "--grid", "0.5,1.5"], "--grid"),
        (["--grid", "0.5,1"], "--grid"),  # theta1 = 1 is inside [0, 1], outside (0, 1)
        (["--q", "2:1:0.5"], "--q"), (["--q", "0:1:0"], "--q"),  # stop < start, step 0
    ])
    def test_bmm_option_out_of_range_is_a_usage_error(self, args, option):
        res = self.run(["bmm-sweep", "--grid", "0.5", *args])
        assert res.exit_code == 2, res.output
        assert f"Invalid value for '{option}'" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("args", [["three-state-sweep", "--grid", "0.1:1e9:1e-9"],
                                      ["bmm-sweep", "--grid", "0:1:1e-7"]])
    def test_grid_range_point_count_is_capped(self, args):
        res = self.run(args)
        assert res.exit_code == 2, res.output
        assert "points, more than the limit 1000000" in res.output

    def test_grid_range_at_the_point_limit(self):
        grid = cli._Reals(0, math.inf, min_open=True, max_open=True)
        assert len(grid.convert("1:1000000:1", None, None)) == 10 ** 6
        with pytest.raises(click.BadParameter, match="has 1000001 points"):
            grid.convert("1:1000001:1", None, None)

    @pytest.mark.parametrize("args,column,values", [
        (["three-state-sweep", "--grid", "1", "--kappa", "0:1:0.4"], "kappa", [0.0, 0.4, 0.8]),
        (["three-state-sweep", "--grid", "0.5:2:0.6"], "h", [0.5, 1.1, 1.7]),
        # a point count rounded to nearest gave tau = 1.2, outside [0, 1]
        (["bmm-sweep", "--tau-mode", "grid", "--grid", "0:1:0.4"], "tau", [0.0, 0.4, 0.8]),
    ])
    def test_grid_range_ends_at_or_below_its_stop(self, args, column, values):
        res = self.run([*args, "--format", "json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        column = [row[payload["columns"].index(column)] for row in payload["rows"]]
        assert sorted(set(column)) == pytest.approx(values, rel=1e-15, abs=0)

    @pytest.mark.parametrize("text,count,last", [
        ("0.1:3.0:0.1", 30, 3.0), ("0.5:0.95:0.05", 10, 0.95), ("0:1:0.1", 11, 1.0),
    ])
    def test_grid_range_keeps_a_stop_a_rounded_step_falls_short_of(self, text, count, last):
        # (3.0 - 0.1) / 0.1 is 28.999999999999996: the stop still counts
        vals = cli._Reals(0).convert(text, None, None)
        assert len(vals) == count and vals[-1] == pytest.approx(last, rel=1e-15, abs=0)

    def test_bmm_sweep_one_distance_matrix_per_sweep(self, monkeypatch):
        # The whole theta1 grid shares one E|X - Y| matrix, one threshold and
        # one mass call, and each index takes the stack of priors once per order.
        calls = Counter()
        for name in ("expected_distance_matrix", "optimal_threshold", "assignment_mass",
                     "renyi_heterogeneity", "functional_hill", "leinster_cobbold"):
            def counted(*args, _f=getattr(betamix, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(betamix, name, counted)
        res = self.run(["bmm-sweep", "--grid", "0.2,0.5,0.8", "--q", "0.5,1,2,inf"])
        assert res.exit_code == 0, res.output
        assert calls == {"expected_distance_matrix": 1, "optimal_threshold": 1,
                         "assignment_mass": 1, "renyi_heterogeneity": 4,
                         "functional_hill": 4, "leinster_cobbold": 4}

    @pytest.mark.parametrize("theta2,theta3", [(5.0, 20.0), (3.0, 3.0), (0.3, 0.45)])
    def test_bmm_sweep_rows_match_per_theta_loop(self, theta2, theta3):
        grid, orders = (0.05, 0.5, 0.73, 0.95), (0.0, 0.5, 1.0 - 2.0 ** -53, 1.0, 2.0, math.inf)
        res = self.run(["bmm-sweep", "--grid", ",".join(map(repr, grid)),
                        "--theta2", repr(theta2), "--theta3", repr(theta3),
                        "--q", ",".join(map(repr, orders)), "--u", "0.5", "--format", "json"])
        assert res.exit_code == 0, res.output
        want = bmm_index_comparison_loop(
            [betamix.BetaMixtureParams(t1, theta2, theta3) for t1 in grid], orders, 0.5)
        rows = json.loads(res.output)["rows"]
        assert len(rows) == len(grid) * len(orders)
        for ((i, t1), (j, q)), row in zip(
                itertools.product(enumerate(grid), enumerate(orders)), rows):
            cells = [t1, theta2, theta3, q, 0.5, *(want[name][i, j] for name in
                                                   ("tau", "rrh", "fhn", "neqrqe", "lci"))]
            assert row == [json_cell(v) for v in cells]

    def test_three_state_sweep_one_kernel_call_per_order(self, monkeypatch):
        # Each index takes the stack of all heights, skewness values (and
        # scaling factors) at once; neqrqe does not depend on the order, and
        # one testbed call builds each stack.
        calls = Counter()
        for module, name in ((classic, "three_state_distance"), (classic, "three_state_probs"),
                             (classic, "similarity_from_distance"), (classic, "neqrqe"),
                             (classic, "functional_hill"), (classic, "leinster_cobbold"),
                             (core, "renyi_heterogeneity")):
            def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        res = self.run(["three-state-sweep", "--grid", "1,2", "--kappa", "0.25,1",
                        "--q", "1,2,inf", "--u", "0.5,1,2"])
        assert res.exit_code == 0, res.output
        assert calls == {"three_state_distance": 1, "three_state_probs": 1,
                         "similarity_from_distance": 1, "neqrqe": 1, "functional_hill": 3,
                         "leinster_cobbold": 3, "renyi_heterogeneity": 3}

    def test_three_state_rows_match_single_matrix_calls(self):
        # The rows the stacked sweep emits, in order, against the per-member loop.
        hs, b, kappas, qs, us = (0.3, 0.8660254, 2.0), 1.5, (0.0, 0.25, math.inf), \
            (0.0, 0.5, 1.0, 2.0, math.inf), (0.0, 1.0, 40.0)
        res = self.run(["three-state-sweep", "--grid", ",".join(map(repr, hs)),
                        "--b", repr(b), "--kappa", "0,0.25,inf", "--q", "0,0.5,1,2,inf",
                        "--u", "0,1,40", "--format", "json"])
        assert res.exit_code == 0, res.output
        expected = []
        for h in hs:
            dist = classic.three_state_distance(h, b)
            for kap in kappas:
                p = classic.three_state_probs(kap)
                qe = classic.neqrqe(classic.rescale_distance(dist), p)
                for q in qs:
                    fhn = classic.functional_hill(dist, p, q)
                    for u in us:
                        lci = classic.leinster_cobbold(
                            classic.similarity_from_distance(dist, u), p, q)
                        expected.append([h, b, kap, q, u, qe, fhn, lci,
                                         renyi_heterogeneity(p, q), classic.is_metric(dist),
                                         classic.is_ultrametric(dist)])
        rows = json.loads(res.output)["rows"]
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            want = [json_cell(v) if isinstance(v, float) else v for v in want]
            assert row == want

    def test_grid_parsing_inclusive_stop(self):
        res = self.run(["three-state-sweep", "--grid", "0.1:0.3:0.1",
                        "--q", "1", "--format", "json"])
        payload = json.loads(res.output)
        hs = sorted({r[0] for r in payload["rows"]})
        assert hs == pytest.approx([0.1, 0.2, 0.3], rel=1e-6, abs=0)


class TestCliEmbeddings:
    def run(self, args, **kw):
        return CliRunner().invoke(cli.main, args, **kw)

    def synth_file(self, tmp_path, **flags):
        out = tmp_path / "emb.csv"
        args = ["embeddings", "synth", "--labels", "3", "--per-label", "8",
                "--nz", "2", "--seed", "11", "--out", str(out)]
        for k, v in flags.items():
            args += [k, str(v)]
        res = self.run(args)
        assert res.exit_code == 0
        return out

    @pytest.mark.parametrize("command,option,value", [
        (["embeddings", "synth"], "--labels", "0"),
        (["embeddings", "synth"], "--per-label", "0"),
        (["embeddings", "synth"], "--nz", "-1"),
        (["embeddings", "synth"], "--seed", "-1"),
        (["embeddings", "neighborhoods", "{file}", "--k", "1"], "--top", "0"),
        (["embeddings", "neighborhoods", "{file}"], "--k", "0"),
        (["embeddings", "synth"], "--contract-label", "-1"),
    ])
    def test_integer_out_of_range_is_a_usage_error(self, tmp_path, command, option, value):
        file = str(self.synth_file(tmp_path))
        res = self.run([c.format(file=file) for c in command] + [option, value])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"Invalid value for '{option}'" in res.output

    @pytest.mark.parametrize("command,option,value", [
        (["embeddings", "decompose", "{file}"], "--q", "0"),
        (["embeddings", "decompose", "{file}"], "--q", "1,-1"),
        (["embeddings", "neighborhoods", "{file}", "--k", "1"], "--q", "0"),
        (["embeddings", "synth"], "--separation", "-1"),
        (["embeddings", "synth"], "--spread", "-1"),
        (["embeddings", "synth"], "--contract-factor", "0"),
        (["embeddings", "synth"], "--log-var-max", "inf"),
        (["assignments", "rrh", "{file}"], "--q", "-1"),
    ])
    def test_float_out_of_range_is_a_usage_error(self, tmp_path, command, option, value):
        self.test_integer_out_of_range_is_a_usage_error(tmp_path, command, option, value)

    def test_synth_unbounded_log_var_width_exits_3(self):
        res = self.run(["embeddings", "synth", "--labels", "1", "--per-label", "1", "--nz", "1",
                        "--log-var-min", "-1e308", "--log-var-max", "1e308"])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert "finite width" in res.output

    def test_synth_then_decompose(self, tmp_path):
        path = self.synth_file(tmp_path)
        res = self.run(["embeddings", "decompose", str(path), "--q", "1,2",
                        "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert len(payload["rows"]) == 6  # 3 labels x 2 orders
        for row in payload["rows"]:
            d = dict(zip(payload["columns"], row))
            assert d["pooled"] == pytest.approx(d["within"] * d["between"],
                                                rel=1e-6, abs=0)

    def test_decompose_whole(self, tmp_path):
        path = self.synth_file(tmp_path)
        res = self.run(["embeddings", "decompose", str(path), "--whole",
                        "--q", "1", "--format", "json"])
        payload = json.loads(res.output)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0][0] == "*"

    def test_decompose_underflowing_volumes(self, tmp_path):
        # variance exp(-23) = 1.03e-10 in 80 dimensions: both volumes underflow
        # to 0, and between is still exp(log pooled - log within) = 1
        path = tmp_path / "tiny.csv"
        with open(path, "w", newline="") as fh:
            write_embeddings(make_dataset(*((f"r{i}", "a", [0.0] * 80, [-23.0] * 80)
                                            for i in range(3))), fh)
        res = self.run(["embeddings", "decompose", str(path), "--q", "0.5,1,2"])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in res.output.splitlines()[5:]]
        assert [row[3:6] for row in rows] == [["0", "0", "1"]] * 3
        with open(path, newline="") as fh:
            cols = group_decomposition(read_embeddings(fh), [0.5, 1.0, 2.0, 7.5]).columns
        assert cols["between"] == pytest.approx([1.0] * 4, rel=1e-12, abs=0)

    def test_neighborhoods(self, tmp_path):
        path = self.synth_file(tmp_path)
        res = self.run(["embeddings", "neighborhoods", str(path), "--k", "5",
                        "--top", "3", "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["metadata"]["k"] == 5
        assert len(payload["rows"]) == 6

    def test_infinite_order(self, tmp_path):
        path = self.synth_file(tmp_path)
        res = self.run(["embeddings", "decompose", str(path), "--q", "2,inf",
                        "--format", "json"])
        assert res.exit_code == 0, res.output
        # strict JSON: no bare Infinity token, inf is the CSV cell text
        rows = json.loads(res.output, parse_constant=pytest.fail)["rows"]
        assert [row[2] for row in rows] == [2.0, "inf"] * 3
        res = self.run(["embeddings", "neighborhoods", str(path), "--k", "5", "--q", "inf"])
        assert res.exit_code == 0, res.output
        assert "# q=inf" in res.output
        res = self.run(["embeddings", "neighborhoods", str(path), "--k", "5", "--q", "inf",
                        "--format", "json"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output, parse_constant=pytest.fail)["metadata"]["q"] == "inf"

    def test_neighborhood_k_usage_error(self, tmp_path):
        path = self.synth_file(tmp_path)
        res = self.run(["embeddings", "neighborhoods", str(path), "--k", "999"])
        assert res.exit_code == 2
        assert "Invalid value for '--k': must be < N=24" in res.output

    def test_bad_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label,m_1,s_1\na,x,not-a-number,-1\n")
        res = self.run(["embeddings", "decompose", str(bad)])
        assert res.exit_code == 3
        assert "error:" in res.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_ids_survive_file_round_trip(self, tmp_path, fmt):
        # ids and labels with line breaks, quotes, commas and "#", written to
        # a file and read back by the CLI, reach the output unchanged
        records = [(rid, label, [float(i), 0.0], [-1.0, -1.0]) for i, (rid, label)
                   in enumerate([("a\rb", "x\ry"), ("c\r\nd", None), ("e,f", '"q"'),
                                 ("#g", "#"), ("h\ni", "l\r\n")])]
        path = tmp_path / f"emb.{fmt}"
        with open(path, "w", newline="") as fh:
            write_embeddings(make_dataset(*records), fh, fmt)
        res = self.run(["embeddings", "neighborhoods", str(path),
                        "--k", "1", "--top", "5", "--format", "json"])
        assert res.exit_code == 0, res.output
        rows = json.loads(res.output)["rows"]
        got = sorted((r[2], r[3]) for r in rows if r[0] == "low")
        assert got == sorted((rid, label) for rid, label, _, _ in records)

    def test_escape_sequences_reach_stdout(self, tmp_path):
        # output that is not a terminal keeps its escape sequences, so stdout
        # carries the bytes --out writes
        path = tmp_path / "emb.csv"
        with open(path, "w", newline="") as fh:
            write_embeddings(make_dataset(("r\x1b[31mx", None, [0.0], [-1.0]),
                                          ("s", None, [1.0], [-1.0])), fh)
        args = ["embeddings", "neighborhoods", str(path), "--k", "1", "--top", "1"]
        out = tmp_path / "out.csv"
        assert self.run(args + ["--out", str(out)]).exit_code == 0
        res = self.run(args)
        assert res.exit_code == 0 and "r\x1b[31mx" in res.output
        assert res.stdout_bytes == out.read_bytes()

    def overflowing_file(self, tmp_path):
        # a valid file whose log-variances near 700 in 4 dimensions put the
        # latent volume near exp(1400), beyond a float
        path = tmp_path / "emb.csv"
        res = self.run(["embeddings", "synth", "--labels", "2", "--per-label", "5",
                        "--nz", "4", "--log-var-min", "690", "--log-var-max", "700",
                        "--out", str(path)])
        assert res.exit_code == 0
        return path

    @pytest.mark.parametrize("command", [["decompose"]])
    def test_overflowing_volume_exits_4(self, tmp_path, command):
        res = self.run(["embeddings", command[0], str(self.overflowing_file(tmp_path)),
                        *command[1:]])
        assert res.exit_code == 4
        assert "overflows a float" in res.output

    def test_distances_past_the_float_range_warn_nothing(self, tmp_path):
        # means near 1e299: the exact neighbour distances overflow to inf, and
        # the pools are singular, which is the one line on stderr
        path = tmp_path / "far.csv"
        res = self.run(["embeddings", "synth", "--labels", "2", "--per-label", "3",
                        "--separation", "1e300", "--out", str(path)])
        assert res.exit_code == 0, res.output
        res = self.run(["embeddings", "neighborhoods", str(path), "--k", "2"])
        assert res.exit_code == 4, res.output
        assert res.stdout == ""
        assert res.stderr == ("error: pooled covariance is numerically singular: "
                              "covariance entries must be finite\n")

    def test_singular_pool_exits_4(self, tmp_path):
        # two records far apart with variances e^-23: the pooled covariance
        # is rank one to double precision
        path = tmp_path / "emb.csv"
        path.write_text("id,label,m_1,m_2,s_1,s_2\na,x,0,0,-23,-23\nb,x,1e8,1e8,-23,-23\n")
        res = self.run(["embeddings", "decompose", str(path)])
        assert res.exit_code == 4, res.output
        assert "pooled covariance is numerically singular" in res.output

    def test_overflowing_volumes_give_finite_neighborhoods(self, tmp_path):
        # between is exp(log pooled - log within), an ordinary number although
        # both volumes overflow; each log volume near 1400 carries a few 1e-13
        # of rounding, so the logs are held to 2e-12
        path = self.overflowing_file(tmp_path)
        res = self.run(["embeddings", "neighborhoods", str(path), "--k", "3",
                        "--format", "json"])
        assert res.exit_code == 0, res.output
        with open(path, newline="") as fh:
            ds = read_embeddings(fh)
        for q in (0.5, 1.0, 2.0):
            vals = neighborhood_between(ds, 3, q)
            ref = [float(gaussian_log_between_mp(ds.means[m], np.exp(ds.log_var[m]), q))
                   for m in (neighborhood_members(ds.means, i, 3) for i in range(len(ds)))]
            assert np.log(vals) == pytest.approx(ref, rel=0, abs=2e-12)
            if q == 1.0:
                rows = json.loads(res.output)["rows"]
                assert len(rows) == 20
                assert all(r[4] == float("%.12g" % vals[ds.ids.index(r[2])])
                           for r in rows)

    def test_missing_file_exits_2(self):
        res = self.run(["embeddings", "decompose", "/nonexistent.csv"])
        assert res.exit_code == 2

    def test_json_round_trip_through_cli(self, tmp_path):
        out = tmp_path / "emb.json"
        res = self.run(["embeddings", "synth", "--labels", "2", "--per-label",
                        "3", "--seed", "4", "--format", "json", "--out", str(out)])
        assert res.exit_code == 0
        res = self.run(["embeddings", "decompose", str(out), "--q", "1"])
        assert res.exit_code == 0


class TestCliAssignments:
    def run(self, args, **kw):
        return CliRunner().invoke(cli.main, args, **kw)

    def test_rrh(self, tmp_path):
        path = tmp_path / "assign.csv"
        path.write_text("id,p_1,p_2,p_3\n"
                        "a,1,0,0\nb,0,1,0\nc,0,0,1\nd,1,0,0\n")
        res = self.run(["assignments", "rrh", str(path), "--q", "0,1,2",
                        "--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        freqs = np.array([2, 1, 1]) / 4.0
        for row in payload["rows"]:
            d = dict(zip(payload["columns"], row))
            assert d["within"] == pytest.approx(1.0, rel=1e-6, abs=0)
            assert d["between"] == pytest.approx(
                renyi_heterogeneity(freqs, d["q"]), rel=1e-9, abs=0)
            assert d["lande_warning"] is False

    def test_invalid_rows_exit_3(self, tmp_path):
        path = tmp_path / "assign.csv"
        path.write_text("id,p_1,p_2\na,0.9,0.9\n")
        res = self.run(["assignments", "rrh", str(path)])
        assert res.exit_code == 3

    def test_numerical_error_exits_4(self, tmp_path, monkeypatch):
        path = tmp_path / "assign.csv"
        path.write_text("id,p_1,p_2\na,0.5,0.5\n")
        def boom(*a, **k):
            raise SingularityError("forced")
        monkeypatch.setattr(decomposition, "decompose", boom)
        res = self.run(["assignments", "rrh", str(path)])
        assert res.exit_code == 4
        assert "forced" in res.output


# every command that takes orders, with its files; "q" is appended
_ORDER_COMMANDS = {
    "three-state-sweep": ["three-state-sweep", "--grid", "0.5,1", "--kappa", "1,2"],
    "bmm-sweep": ["bmm-sweep", "--grid", "0.3,0.6"],
    "bmm-sweep-grid": ["bmm-sweep", "--tau-mode", "grid", "--grid", "0.2,0.5"],
    "embeddings-decompose": ["embeddings", "decompose", "{emb}"],
    "embeddings-neighborhoods": ["embeddings", "neighborhoods", "{emb}", "--k", "3",
                                 "--top", "2"],
    "assignments-rrh": ["assignments", "rrh", "{asg}"],
}
_FHN_AT_INF = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 7: fhn is empty at q = inf, its limit at q = 1e300")


class TestCliContinuityInQ:
    """The CLI half of test_core.py::TestContinuityInQ: each command prints
    the same cells at q = inf as at q = 1e300, its q column aside."""

    def table(self, tmp_path, name, q):
        emb, asg = tmp_path / "emb.csv", tmp_path / "asg.csv"
        with open(emb, "w", newline="") as fh:
            write_embeddings(synth_embeddings(2, 4, 2, seed=1), fh)
        asg.write_text("id,p_1,p_2,p_3\na,0.5,0.3,0.2\nb,0.1,0.3,0.6\nc,0.2,0.2,0.6\n")
        args = [a.format(emb=emb, asg=asg) for a in _ORDER_COMMANDS[name]]
        res = CliRunner().invoke(cli.main, [*args, "--q", q])
        assert res.exit_code == 0, res.output
        return [line.split(",") for line in res.output.splitlines() if not line.startswith("#")]

    @pytest.mark.parametrize("name, columns", [
        *((name, "rest") for name in _ORDER_COMMANDS),
        pytest.param("three-state-sweep", "fhn", marks=_FHN_AT_INF),
        pytest.param("bmm-sweep", "fhn", marks=_FHN_AT_INF),
    ])
    def test_inf_prints_the_cells_of_1e300(self, tmp_path, name, columns):
        # columns: "fhn", or "rest" for every column but q and fhn
        at_1e300, at_inf = (self.table(tmp_path, name, q) for q in ("1e300", "inf"))
        header = at_1e300[0]
        assert at_inf[0] == header and len(at_inf) == len(at_1e300) > 1
        checked = [h for h in header if h not in ("q", "fhn")] if columns == "rest" else [columns]
        for column in checked:
            j = header.index(column)
            assert [r[j] for r in at_inf] == [r[j] for r in at_1e300], column


_EMBEDDING_BYTES = b"id,label,m_1,s_1\na\xff,0,1.0,-1.0\nb,0,2.0,-1.0\n"


def _float_options(group, path=()):
    """(command path, command, option) for every option of ``group`` and its
    subgroups that takes a float or a list of floats."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _float_options(command, (*path, name))
            continue
        for param in command.params:
            if isinstance(param, click.Option) and not param.is_flag and not isinstance(
                    param.type, (click.types.IntParamType, click.Choice, click.Path)):
                yield (*path, name), command, param


_FLOAT_OPTIONS = list(_float_options(cli.main))


class TestCliOptionTypes:
    """Every float option is parsed and range-checked by its declared type:
    a value outside it is a usage error naming the option."""

    def test_every_float_option_declares_its_range(self):
        assert len(_FLOAT_OPTIONS) == 19
        for _, _, option in _FLOAT_OPTIONS:
            assert isinstance(option.type, cli._Real), option.name

    @pytest.mark.parametrize("path,command,option", _FLOAT_OPTIONS,
                             ids=[" ".join((*p, o.opts[0])) for p, _, o in _FLOAT_OPTIONS])
    def test_nan_is_a_usage_error_naming_the_option(self, tmp_path, path, command, option):
        file = tmp_path / "in.csv"
        file.write_text("id,label,m_1,s_1\na,x,0,0\nb,x,1,0\n")
        files = [str(file) for p in command.params if isinstance(p, click.Argument)]
        res = CliRunner().invoke(cli.main, [*path, *files, option.opts[0], "nan"])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"Invalid value for '{option.opts[0]}'" in res.output


_LIST_OPTIONS = [(path, command, option) for path, command, option in _FLOAT_OPTIONS
                 if isinstance(option.type, cli._Reals)]
_LIST_IDS = [" ".join((*p, o.opts[0])) for p, _, o in _LIST_OPTIONS]
# Each list option's declared range as --help prints it.
_LIST_RANGES = {
    "three-state-sweep --grid": "0<x<inf", "three-state-sweep --kappa": "x>=0",
    "three-state-sweep --q": "x>=0", "three-state-sweep --u": "0<=x<inf",
    "bmm-sweep --grid": "0<=x<=1", "bmm-sweep --q": "x>=0",
    "embeddings decompose --q": "x>0", "assignments rrh --q": "x>=0",
}


class TestCliListOptions:
    """Every list option is a `_Real` of its own range: it takes a,b,c or
    start:stop:step, shows its range in --help and range-checks a whole list
    through its minimum and maximum."""

    def test_every_list_option_shows_its_range(self):
        assert sorted(_LIST_IDS) == sorted(_LIST_RANGES)
        for name, (path, command, option) in zip(_LIST_IDS, _LIST_OPTIONS):
            with click.Context(command, info_name=path[-1]) as ctx:
                _, help_text = option.get_help_record(ctx)
            assert help_text.endswith(f"; {_LIST_RANGES[name]}]"), (name, help_text)
            assert "a,b,c or start:stop:step" in help_text, name

    @pytest.mark.parametrize("path,command,option", _LIST_OPTIONS, ids=_LIST_IDS)
    def test_a_long_list_costs_two_range_checks(self, monkeypatch, path, command, option):
        calls = []
        convert = click.FloatRange.convert

        def counted(self, value, param, ctx):
            calls.append(value)
            return convert(self, value, param, ctx)

        monkeypatch.setattr(click.FloatRange, "convert", counted)
        values = np.linspace(0.001, 0.999, 990).tolist()
        assert option.type.convert(",".join(map(repr, values)), option, None) == values
        assert len(calls) <= 2

    @pytest.mark.parametrize("args,lowest", [
        (["three-state-sweep", "--grid", "1"], 0.0), (["bmm-sweep", "--grid", "0.5"], 0.0),
        (["embeddings", "decompose", "EMB"], 0.5), (["assignments", "rrh", "ASSIGN"], 0.0),
    ], ids=["three-state-sweep", "bmm-sweep", "decompose", "rrh"])
    def test_q_takes_a_range(self, tmp_path, args, lowest):
        emb, assign = tmp_path / "emb.csv", tmp_path / "assign.csv"
        emb.write_text("id,label,m_1,s_1\na,x,0,0\nb,x,1,0\n")
        assign.write_text("id,p_1,p_2\na,0.5,0.5\nb,1,0\n")
        args = [{"EMB": str(emb), "ASSIGN": str(assign)}.get(a, a) for a in args]
        res = CliRunner().invoke(cli.main, [*args, "--q", f"{lowest}:2:0.5",
                                            "--format", "json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        q = [row[payload["columns"].index("q")] for row in payload["rows"]]
        assert sorted(set(q)) == [v for v in (0.0, 0.5, 1.0, 1.5, 2.0) if v >= lowest]


class TestCliMalformedInput:
    """Malformed input files exit 3 with an error line, never a traceback.
    No flag names the format: a file starting with ``{`` or ``[`` is JSON."""

    def run(self, args):
        return CliRunner().invoke(cli.main, args)

    def assert_exit_3(self, res):
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error:" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("text", [
        '{"records": [', "[1,2]", '{"records": [1]}', '{"records": {"a": 1}}',
        '{"records": [{"id": 1%s}]}' % ("0" * 5000)],
        ids=["truncated", "array", "non-object-record", "records-object",
             "integer-past-the-digit-limit"])
    @pytest.mark.parametrize("command", [["embeddings", "decompose"],
                                         ["assignments", "rrh"]],
                             ids=["decompose", "rrh"])
    def test_malformed_json(self, tmp_path, command, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        res = self.run(command + [str(path)])
        self.assert_exit_3(res)
        assert "JSON" in res.output  # read as JSON, not as a CSV without a header

    @pytest.mark.parametrize("command,data", [
        (["embeddings", "decompose"], _EMBEDDING_BYTES),
        (["embeddings", "neighborhoods", "--k", "1"], _EMBEDDING_BYTES),
        (["assignments", "rrh"], b"id,p_1,p_2\nr\xff,0.5,0.5\n"),
    ], ids=["decompose", "neighborhoods", "rrh"])
    def test_non_utf8_names_file(self, tmp_path, command, data):
        path = tmp_path / "bytes.csv"
        path.write_bytes(data)
        res = self.run(command + [str(path)])
        self.assert_exit_3(res)
        assert "bytes.csv" in res.output

    def test_field_over_csv_limit(self, tmp_path):
        # csv.reader refuses a field over csv.field_size_limit() (131,072),
        # whether or not another cell sends the body to the record loop
        path = tmp_path / "assign.csv"
        rows = f"id,p_1,p_2\n{'x' * 200_000},0.5,0.5\nb,1,0\n"
        for text in (rows, rows + "c,1\n"):
            path.write_text(text)
            res = self.run(["assignments", "rrh", str(path)])
            self.assert_exit_3(res)
            assert "assignment record 0: field larger than field limit" in res.output


def _leaf_commands(group, path=()):
    """(command path, command) for every command of ``group`` and its subgroups."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, (*path, name))
        else:
            yield (*path, name), command


# a valid input per file kind; the malformed inputs below, per file kind
_VALID_INPUT = {"embedding": b"id,label,m_1,s_1\na,x,0,0\nb,x,1,0\n",
                "assignment": b"id,p_1,p_2\na,0.5,0.5\nb,1,0\n"}
_MALFORMED_INPUT = {
    "empty": {"embedding": b"", "assignment": b""},
    "non-utf8": {"embedding": b"id,label,m_1,s_1\na\xff,x,0,0\n",
                 "assignment": b"id,p_1,p_2\na\xff,0.5,0.5\n"},
    "json-empty-array": {"embedding": b"[]", "assignment": b"[]"},
    "json-extra-field": {
        "embedding": b'{"records": [{"id": "a", "label": "x", "m_1": 0, "s_1": 0, "m_2": 1}]}',
        "assignment": b'{"records": [{"id": "a", "p_1": 1, "p_2": 0, "x": 0}]}'},
    "csv-extra-column": {"embedding": b"id,label,m_1,s_1\na,x,0,0,1\n",
                         "assignment": b"id,p_1,p_2\na,1,0,0\n"},
}
_COMMANDS = dict(_leaf_commands(cli.main))


def _invocation(tmp_path, path, case=None) -> list:
    """The arguments that run the command ``path`` on an input file holding
    the ``_MALFORMED_INPUT`` of ``case`` (default: a valid input), if the
    command takes a file."""
    kind = "assignment" if path[0] == "assignments" else "embedding"
    file = tmp_path / "input"
    file.write_bytes(_MALFORMED_INPUT.get(case, _VALID_INPUT)[kind])
    files = [str(file) for p in _COMMANDS[path].params if isinstance(p, click.Argument)]
    return [*path, *files, *(["--k", "1"] if path[-1] == "neighborhoods" else [])]


_NO_TRACEBACK_CASES = [
    (path, case) for path, command in _COMMANDS.items()
    for case in ([*_MALFORMED_INPUT, "out-missing-dir", "nan-option"]
                 if any(isinstance(p, click.Argument) for p in command.params)
                 else ["out-missing-dir", "nan-option"])]


class TestCliNoTraceback:
    """Every command, on each malformed input it can be given, exits 2, 3 or
    4 through ``SystemExit``, never with another exception."""

    def test_every_command_is_covered(self):
        assert len(_COMMANDS) == 6
        assert len(_NO_TRACEBACK_CASES) == 3 * 7 + 3 * 2

    @pytest.mark.parametrize("path,case", _NO_TRACEBACK_CASES,
                             ids=[" ".join((*p, c)) for p, c in _NO_TRACEBACK_CASES])
    def test_malformed_input_exits_cleanly(self, tmp_path, path, case):
        args = _invocation(tmp_path, path, case)
        if case == "out-missing-dir":
            args += ["--out", str(tmp_path / "missing" / "out.csv")]
        if case == "nan-option":
            option = next(o for p, _, o in _FLOAT_OPTIONS if p == path)
            args += [option.opts[0], "nan"]
        res = CliRunner().invoke(cli.main, args)
        assert res.exit_code in (2, 3, 4), res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert "Traceback" not in res.output


class TestCliUnopenablePath:
    """A path that cannot be opened is a usage error naming its parameter,
    as click's own path checks are."""

    def test_out_into_a_missing_directory(self, tmp_path):
        # every command writes through cli._emit; TestCliNoTraceback runs each
        out = tmp_path / "missing" / "out.csv"
        res = CliRunner().invoke(cli.main, ["bmm-sweep", "--grid", "0.5", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"Invalid value for '--out': cannot open {str(out)!r}: " in res.output
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("path", [("embeddings", "decompose"),
                                      ("embeddings", "neighborhoods"), ("assignments", "rrh")],
                             ids=" ".join)
    def test_input_file(self, tmp_path, monkeypatch, path):
        # the file passes click's existence check and then fails to open
        def refuse(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        args = _invocation(tmp_path, path)
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        res = CliRunner().invoke(cli.main, args)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        file = str(tmp_path / "input")
        assert f"Invalid value for 'FILE': cannot open {file!r}: Permission denied" in res.output


def _assignment_text(fmt):
    rows = [("a", 0.5, 0.5), ("b", 0.2, 0.8), ("#c", 1.0, 0.0)]
    if fmt == "json":
        return json.dumps({"records": [{"id": i, "p_1": a, "p_2": b}
                                       for i, a, b in rows]})
    return "# exported\nid,p_1,p_2\n" + "".join(f"{i},{a},{b}\n" for i, a, b in rows)


def _embedding_text(fmt):
    buf = io.StringIO()
    write_embeddings(synth_embeddings(2, 4, 2, seed=3), buf, fmt)
    return buf.getvalue()


_FILE_COMMANDS = [
    (["embeddings", "decompose"], ["--q", "0.5,1,2"], _embedding_text),
    (["embeddings", "neighborhoods"], ["--k", "2", "--top", "3"], _embedding_text),
    (["assignments", "rrh"], ["--q", "0,1,inf"], _assignment_text),
]


class TestCliInputDetection:
    """The input format is read from the file; a UTF-8 byte-order mark is
    dropped."""

    def run(self, command, path, flags):
        res = CliRunner().invoke(cli.main, command + [str(path)] + flags)
        assert res.exit_code == 0, res.output
        return res.output

    @pytest.mark.parametrize("command,flags,make", _FILE_COMMANDS,
                             ids=["decompose", "neighborhoods", "rrh"])
    def test_json_named_csv_reads_as_json(self, tmp_path, command, flags, make):
        plain = tmp_path / "in.json"
        plain.write_text(make("json"))
        misnamed = tmp_path / "in.csv"
        misnamed.write_text(make("json"))
        assert self.run(command, misnamed, flags) == self.run(command, plain, flags)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command,flags,make", _FILE_COMMANDS,
                             ids=["decompose", "neighborhoods", "rrh"])
    def test_byte_order_mark_is_dropped(self, tmp_path, command, flags, make, fmt):
        plain = tmp_path / "plain"
        plain.write_text(make(fmt), encoding="utf-8")
        bom = tmp_path / "bom"
        bom.write_text(make(fmt), encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert self.run(command, bom, flags) == self.run(command, plain, flags)

    def test_module_entry_point_matches_cli_runner(self, tmp_path):
        # `python -m hetlab.cli` is the entry the benchmark times; its exit
        # path (`cli.run`) keeps the exit code, stdout and stderr of `cli.main`
        emb = tmp_path / "emb.json"
        emb.write_text(_embedding_text("json"))
        assign = tmp_path / "assign.csv"
        assign.write_text(_assignment_text("csv"), encoding="utf-8-sig")
        bad = tmp_path / "bad.csv"
        bad.write_text("id,p_1,p_2\na,0.5,0.5\nb,true,false\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        big = ["three-state-sweep", "--grid", "0.02:3:0.01", "--kappa", "0.25,1,4",
               "--q", "0.5,1,2,inf", "--u", "0.5,1,2", "--format", "json"]
        for args, code in ((["embeddings", "decompose", str(emb), "--q", "1,2"], 0),
                           (["assignments", "rrh", str(assign), "--q", "0,1,2,inf"], 0),
                           (["bmm-sweep", "--grid", "0.5", "--theta2", "-1"], 2),
                           (["assignments", "rrh", str(bad)], 3),
                           (["bmm-sweep", "--grid", "0.5", "--theta2", "50", "--theta3", "60"],
                            4),
                           (big, 0)):
            proc = subprocess.run([sys.executable, "-m", "hetlab.cli"] + args,
                                  capture_output=True, env=env, timeout=120)
            res = CliRunner().invoke(cli.main, args, prog_name="python -m hetlab.cli")
            assert res.exit_code == proc.returncode == code, (args, proc.stderr)
            assert proc.stdout == res.stdout_bytes and proc.stderr == res.stderr_bytes, args
        assert len(proc.stdout) > 2 ** 20  # the last table passes a pipe buffer many times


class TestCliOutputEncoding:
    def test_out_file_is_utf8_in_an_ascii_locale(self, tmp_path):
        # the C locale encodes text files as ASCII, where a label é cannot go
        emb = tmp_path / "emb.csv"
        emb.write_text("id,label,m_1,s_1\na,é,0,-1\nb,é,1,-1\nc,x,2,-1\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for name, locale in (("ascii", {"PYTHONUTF8": "0", "LC_ALL": "C"}),
                             ("utf8", {"PYTHONUTF8": "1"})):
            out = tmp_path / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "hetlab.cli", "embeddings", "decompose", str(emb),
                 "--out", str(out)],
                capture_output=True, env=dict(os.environ, PYTHONPATH=path, **locale),
                timeout=120)
            assert proc.returncode == 0, (name, proc.stderr)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and "\né,".encode() in outputs[0]


def _fuzz_cases():
    """(command, input format, valid input bytes) for each file-reading
    command; the format only names the seed, the reader detects it."""
    cases = []
    for fmt in ("csv", "json"):
        buf = io.StringIO()
        write_embeddings(small_dataset(), buf, fmt)
        emb = buf.getvalue().encode()
        cases.append((["embeddings", "decompose", "--q", "0.5,1,2"], fmt, emb))
        cases.append((["embeddings", "neighborhoods", "--k", "1"], fmt, emb))
    assign = [("a", 0.5, 0.5, 0.0), ("b", 0.2, 0.3, 0.5), ("c", 0.0, 0.0, 1.0),
              ("d", 1.0, 0.0, 0.0)]
    csv_text = "id,p_1,p_2,p_3\n" + "".join(f"{i},{a},{b},{c}\n" for i, a, b, c in assign)
    json_text = json.dumps({"records": [{"id": i, "p_1": a, "p_2": b, "p_3": c}
                                        for i, a, b, c in assign]})
    for fmt, text in (("csv", csv_text), ("json", json_text)):
        cases.append((["assignments", "rrh", "--q", "0,1,2,inf"], fmt, text.encode()))
    return cases


# Bytes that CSV, JSON and number parsing treat specially, plus any byte at all.
_FUZZ_BYTE = st.one_of(st.sampled_from(list(b',"#\n\r{}[]:.-+eE0123456789 ')),
                       st.integers(0, 255))
_MUTATIONS = st.lists(st.tuples(st.integers(0, 2 ** 16),
                                st.sampled_from(["replace", "insert", "delete"]),
                                _FUZZ_BYTE), min_size=1, max_size=4)


class TestCliIngestionFuzz:
    """Byte-mutated input files end in success, a validation error (3) or a
    numerical error (4), never in a traceback."""

    @given(st.sampled_from(_fuzz_cases()), _MUTATIONS)
    @settings(max_examples=300, deadline=None)
    def test_mutated_input_exits_cleanly(self, case, mutations):
        command, _, data = case
        data = bytearray(data)
        for pos, op, byte in mutations:
            pos %= len(data) + 1
            if op == "insert":
                data.insert(pos, byte)
            elif pos < len(data):
                if op == "replace":
                    data[pos] = byte
                else:
                    del data[pos]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input")
            with open(path, "wb") as fh:
                fh.write(bytes(data))
            res = CliRunner().invoke(cli.main, command[:2] + [path] + command[2:])
        assert res.exit_code in (0, 3, 4), (bytes(data), res.output, res.exception)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output


class TestCliDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        runner = CliRunner()
        emb = tmp_path / "emb.csv"
        for cmd in (
            ["embeddings", "synth", "--labels", "2", "--per-label", "5",
             "--seed", "9", "--out", str(emb)],
        ):
            assert runner.invoke(cli.main, cmd).exit_code == 0
        commands = [
            ["three-state-sweep", "--grid", "0.5,1.5", "--q", "1,2"],
            ["bmm-sweep", "--grid", "0.5,0.8", "--q", "1,2"],
            ["embeddings", "decompose", str(emb), "--q", "1"],
            ["embeddings", "neighborhoods", str(emb), "--k", "3"],
        ]
        for fmt in ("csv", "json"):
            for cmd in commands:
                a = runner.invoke(cli.main, cmd + ["--format", fmt])
                b = runner.invoke(cli.main, cmd + ["--format", fmt])
                assert a.exit_code == 0 and a.output == b.output
