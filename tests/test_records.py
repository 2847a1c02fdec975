"""CSV schema round-trips and rejection of malformed files."""

import dataclasses
import functools
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from support import QvfRecord, campaign_csv, campaign_rows, table_rows
from qvf import records
from qvf.benchmarks import build_deutsch_jozsa, build_grover
from qvf.circuit import Circuit
from qvf.injector import CampaignConfig, FaultSite, SiteBlock, grid_degrees
from qvf.records import (
    COLUMNS,
    SCHEMA_LINE,
    BlockWriter,
    RecordFileError,
    read_table,
    read_table_file,
)


def sample_records():
    return campaign_rows(build_grover(), CampaignConfig(grid_step=90))


def read_rows(stream):
    """The rows read_table parses from a record file, as QvfRecords."""
    return table_rows(read_table(stream))


def test_layout():
    text = oracles.record_csv(sample_records())
    lines = text.splitlines()
    assert lines[0] == SCHEMA_LINE == "# qvf-csv v1"
    assert lines[1] == ",".join(COLUMNS)
    assert len(lines) == 2 + 1 + 18 * 12
    baseline = lines[2].split(",")
    assert baseline[0] == "grover-11"
    assert baseline[1] == "-1"
    assert baseline[COLUMNS.index("improved_flag")] in ("0", "1")


def test_angles_written_as_integers_on_the_grid():
    text = oracles.record_csv(sample_records())
    row = text.splitlines()[3].split(",")
    assert row[COLUMNS.index("theta_deg")] == "0"
    assert row[COLUMNS.index("phi_deg")] == "0"
    last = text.splitlines()[-1].split(",")
    assert last[COLUMNS.index("theta_deg")] == "180"
    assert last[COLUMNS.index("phi_deg")] == "270"


def test_round_trip_is_exact():
    records = sample_records()
    back = read_rows(io.StringIO(oracles.record_csv(records)))
    assert back == records


def test_sampled_mode_round_trip(tmp_path):
    text = campaign_csv(
        build_grover(), CampaignConfig(grid_step=90, mode="sampled", shots=64, seed=9)
    )
    path = tmp_path / "campaign.csv"
    path.write_text(text, encoding="utf-8")
    records = table_rows(read_table_file(path))
    assert len(records) == 1 + 18 * 12
    assert oracles.record_csv(records) == text


def test_fractional_angles_survive():
    row = QvfRecord(
        "c", 0, 0, 0, 7.5, 0.125, "exact", 0, 0, 1.0, 0.0, 1.0, 0.0, 0.0, False
    )
    back = read_rows(io.StringIO(oracles.record_csv([row])))
    assert back == [row]
    assert ",7.5,0.125," in oracles.record_csv([row])


def reject(text):
    with pytest.raises(RecordFileError) as ei:
        read_table(io.StringIO(text))
    return str(ei.value)


def with_value(lines, index, column, value):
    """The file text of ``lines`` with one field of ``lines[index]`` replaced."""
    row = lines[index].split(",")
    row[COLUMNS.index(column)] = value
    return "\n".join(lines[:index] + [",".join(row)] + lines[index + 1:]) + "\n"


def test_schema_line_checked():
    reject("")
    reject("# qvf-csv v2\n" + ",".join(COLUMNS) + "\n")
    good = oracles.record_csv(sample_records()[:1])
    reject(good.splitlines()[1] + "\n")  # header without schema line


def test_header_checked():
    reject(SCHEMA_LINE + "\n")
    reject(SCHEMA_LINE + "\ncircuit_id,qvf\n")


def test_row_shape_and_types_checked():
    good = oracles.record_csv(sample_records()[:1])
    reject(good + "short,row\n")
    bad_int = good.splitlines()
    row = bad_int[2].split(",")
    row[1] = "one"
    reject("\n".join(bad_int[:2] + [",".join(row)]) + "\n")


def test_metric_values_must_be_finite():
    good = oracles.record_csv(sample_records()[:2]).splitlines()
    for column in ("pst", "p_b", "contrast", "qvf", "baseline_qvf"):
        for value in ("nan", "inf", "-inf"):
            row = good[3].split(",")
            row[COLUMNS.index(column)] = value
            reject("\n".join(good[:3] + [",".join(row)]) + "\n")


def test_rows_must_share_the_campaign():
    good = oracles.record_csv(sample_records()[:3]).splitlines()
    for column, value in (("circuit_id", "other"), ("mode", "sampled"),
                          ("shots", "64"), ("seed", "1")):
        row = good[4].split(",")
        row[COLUMNS.index(column)] = value
        reject("\n".join(good[:4] + [",".join(row)]) + "\n")
    with pytest.raises(RecordFileError) as ei:
        read_table(io.StringIO("\n".join(good[:4] + [",".join(row)]) + "\n"))
    assert "line 5" in str(ei.value)


def test_at_most_one_baseline():
    records = sample_records()
    reject(oracles.record_csv([records[0], records[0]]))


def test_error_names_offending_line():
    good = oracles.record_csv(sample_records()[:2])
    with pytest.raises(RecordFileError) as ei:
        read_table(io.StringIO(good + "short,row\n"))
    assert "line 5" in str(ei.value)


def test_fault_angles_must_be_finite():
    good = oracles.record_csv(sample_records()[:3]).splitlines()
    for column in ("theta_deg", "phi_deg"):
        for value in ("nan", "inf", "-inf"):
            assert reject(with_value(good, 3, column, value)).startswith("line 4:")


def test_improved_flag_must_be_0_or_1():
    good = oracles.record_csv(sample_records()[:3]).splitlines()
    for value in ("7", "-1", "2"):
        message = reject(with_value(good, 4, "improved_flag", value))
        assert message == f"line 5: improved_flag {value} is not 0 or 1"


def test_only_the_baseline_has_negative_indices():
    good = oracles.record_csv(sample_records()[:3]).splitlines()
    # a lone fault row that looks like a baseline
    assert reject("\n".join(good[:2]) + "\n" + with_value(
        good[3:4], 0, "site_index", "-5")).startswith("line 3:")
    # a baseline with indices other than -1/-1/-1
    for column, value in (("site_index", "-2"), ("gate_index", "0"), ("qubit", "1")):
        assert reject(with_value(good, 2, column, value)).startswith("line 3:")
    # a fault row with one negative index
    for column in ("gate_index", "qubit"):
        assert reject(with_value(good, 4, column, "-1")).startswith("line 5:")


def test_first_bad_row_is_named():
    # the later row's bad value sits in an earlier column
    good = oracles.record_csv(sample_records()[:3]).splitlines()
    text = with_value(good, 3, "pst", "nope")
    text = with_value(text.splitlines(), 4, "site_index", "one")
    assert reject(text) == "line 4: could not convert string to float: 'nope'"


@pytest.mark.parametrize("quoted", [True, False])
def test_field_above_the_csv_limit_is_a_record_error(quoted):
    # csv.reader refuses fields over 131,072 characters; an unquoted one
    # reaches it because its changed key moves the chunk to the csv route
    good = oracles.record_csv(sample_records()).splitlines()
    field = '"' + "x" * 140_000 + '"' if quoted else "x" * 140_000
    text = with_value(good, 4, "circuit_id", field)
    assert reject(text) == "line 5: field larger than field limit (131072)"
    header = with_value(good, 1, "circuit_id", field)
    assert reject(header) == "line 2: field larger than field limit (131072)"


@pytest.mark.parametrize("circuit_id", ["x" * 140_000, "x," * 70_000],
                         ids=["unquoted", "quoted"])
def test_constant_key_above_the_csv_limit_is_a_record_error(circuit_id):
    # one key in every row: quote-free, the chunk would suit np.loadtxt,
    # which has no field limit, so its over-long line must go to the csv
    # route to raise the error that the quoted id raises there
    rows = [r._replace(circuit_id=circuit_id) for r in sample_records()]
    text = oracles.record_csv(rows)
    assert ('"' in text) == ("," in circuit_id)
    assert reject(text) == "line 3: field larger than field limit (131072)"


def test_quote_free_chunks_take_the_loadtxt_route():
    lines = oracles.record_csv(sample_records()).splitlines(keepends=True)[2:]
    cols = records._loadtxt_columns(lines, len("".join(lines)))
    assert cols is not None
    for key in ("circuit_id", "mode", "shots", "seed"):
        col = cols[COLUMNS.index(key)]
        assert col[0] is col[-1]  # one shared object per chunk


@pytest.mark.parametrize("value", ["0.9", "1e0"])
def test_float_text_in_an_int_column_is_rejected(monkeypatch, value):
    # numpy 1.x loadtxt casts float text into an int64 field, warning only
    # with a DeprecationWarning; emulate that cast
    loadtxt = np.loadtxt

    def lenient_loadtxt(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt([line.replace(f",{value}\n", ",0\n") for line in lines], **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    text = with_value(oracles.record_csv(sample_records()).splitlines(), 3,
                      "improved_flag", value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        message = reject(text)
    assert message == f"line 4: invalid literal for int() with base 10: '{value}'"


@pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
@pytest.mark.parametrize("circuit_id", ["x\ny", "grover-11"])
def test_chunking_keeps_rows_whole(monkeypatch, chunk_rows, circuit_id):
    # a quoted newline crosses the boundary of 3-line chunks; the last row
    # may have no trailing newline
    monkeypatch.setattr(records, "CHUNK_ROWS", chunk_rows)
    rows = [r._replace(circuit_id=circuit_id) for r in sample_records()[:5]]
    text = oracles.record_csv(rows)
    assert read_rows(io.StringIO(text)) == rows
    assert read_rows(io.StringIO(text.rstrip("\n"))) == rows


@functools.cache
def campaign_lines(sampled):
    rows = sample_records()[:16]
    if sampled:  # a seed beyond int64
        rows = [r._replace(mode="sampled", shots=64, seed=2**64 + 5)
                for r in rows]
    return oracles.record_csv(rows).splitlines()


MUTATIONS = ("nan", "inf", "x", "", "1_0", "\u0661", " 1", "2", "-1", "1.5",
             "-1.0", '"0"', str(2**63 + 1))
OTHER_KEY = {"circuit_id": "other", "mode": "sampled", "shots": "65", "seed": "1"}


@st.composite
def mutated_files(draw):
    """Text of a campaign file with up to three fields or lines broken."""
    lines = campaign_lines(draw(st.booleans()))
    start = draw(st.integers(2, 6))
    rows = lines[start:start + draw(st.integers(0, 12))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i].split(",")
        kind = draw(st.sampled_from(("value", "extra", "missing", "blank", "key")))
        if kind == "value":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(MUTATIONS))
        elif kind == "extra":
            row.append("0")
        elif kind == "missing":
            row.pop()
        elif kind == "key":
            key = draw(st.sampled_from(sorted(OTHER_KEY)))
            row[min(COLUMNS.index(key), len(row) - 1)] = OTHER_KEY[key]
        if kind == "blank":
            rows.insert(i, "")
        else:
            rows[i] = ",".join(row)
    return "\n".join(lines[:2] + rows) + draw(st.sampled_from(("\n", "")))


def parse_outcome(text):
    """Columns with their dtypes and element types, or the error text."""
    try:
        table = read_table(io.StringIO(text))
    except RecordFileError as exc:
        return str(exc)
    columns = [getattr(table, f.name) for f in dataclasses.fields(table)]
    return [(c.dtype, c.tolist(), [type(v) for v in c.tolist()]) for c in columns]


@settings(max_examples=300, deadline=None)
@given(mutated_files(), st.sampled_from((1, 3, 4, 1024)))
def test_loadtxt_route_agrees_with_csv_route(text, chunk_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "CHUNK_ROWS", chunk_rows)
        fast = parse_outcome(text)
        mp.setattr(records, "_loadtxt_columns", lambda lines, size: None)
        assert fast == parse_outcome(text)


_TINY = [0.5, 5e-324, 0.5, 1e-310, 5e-324, 0.5] * 2  # 5e-324 and 1e-310 are subnormal

#: grid step and four metric columns for BlockWriter
SYNTHETIC_BLOCKS = {
    "signed_zeros": (90, [[0.0, -0.0] * 6, [-0.0, 0.0, 0.0] * 4,
                          [0.0] * 11 + [-0.0], [-0.0] * 12]),
    "repeats_and_subnormals": (90, [_TINY, _TINY[::-1], [0.25] * 12, [1.0, 0.1, 0.1] * 4]),
    "all_distinct": (90, np.random.default_rng(12).random((4, 12)).tolist()),
    "single_point": (360, [[0.3], [-0.0], [1e-310], [0.7]]),
    "mixed_angles": (180, [[0.5, -0.0, 0.5, 0.0], [0.1] * 4, [0.2, 0.3] * 2, [1.0] * 4]),
}

SYNTHETIC = Circuit(1, [], (0,), name="synthetic")


def baseline_block(*metrics):
    """The site -1 SiteBlock with one value per score column."""
    return SiteBlock(-1, FaultSite(-1, -1), *np.array([[m] for m in metrics]),
                     np.array([False]))


@pytest.mark.parametrize("grid_step, columns", SYNTHETIC_BLOCKS.values(),
                         ids=list(SYNTHETIC_BLOCKS))
def test_block_writer_formats_each_distinct_value_as_the_oracle(grid_step, columns):
    # one repr per distinct bit pattern must still give every row its own text
    config = CampaignConfig(grid_step=grid_step, seed=7)
    baseline = baseline_block(1.0, 0.0, 1.0, 0.25)
    buf = io.StringIO()
    writer = BlockWriter(buf, SYNTHETIC, config, baseline)
    rows = [QvfRecord("synthetic", -1, -1, -1, 0, 0, "exact", 0, 7,
                      1.0, 0.0, 1.0, 0.25, 0.25, False)]
    for site_index in range(2):  # the second site gets the columns rotated
        site = FaultSite(gate_index=3 + site_index, qubit=site_index)
        cols = [np.array(c, dtype=float) for c in columns[site_index:] + columns[:site_index]]
        improved = cols[3] < 0.5
        writer.write(site_index, site, *cols, improved)
        rows += [
            QvfRecord("synthetic", site_index, site.gate_index, site.qubit, t, p, "exact", 0, 7,
                      *values, 0.25, flag)
            for (t, p), *values, flag in zip(grid_degrees(grid_step),
                                            *(c.tolist() for c in cols), improved.tolist())
        ]
    assert buf.getvalue() == oracles.record_csv(rows)


def test_block_writer_baseline_row_formats_as_the_oracle():
    config = CampaignConfig(grid_step=90, mode="sampled", shots=64, seed=2 ** 70)
    buf = io.StringIO()
    BlockWriter(buf, SYNTHETIC, config, baseline_block(5e-324, -0.0, 0.1, 1.0))
    assert buf.getvalue() == oracles.record_csv([QvfRecord(
        "synthetic", -1, -1, -1, 0, 0, "sampled", 64, 2 ** 70, 5e-324, -0.0, 0.1, 1.0, 1.0,
        False)])


@pytest.mark.parametrize("extra", [1, -1, pytest.param((1, -1, 0, 0, 0), id="uneven"),
                                   pytest.param((0, 0, 0, 0, 1), id="flags")])
def test_block_writer_refuses_a_block_unlike_the_angles(extra):
    # a block cut short or run long would write a site with the wrong rows;
    # uneven score columns whose lengths sum to four grids would shift
    # values from one column into the next
    config = CampaignConfig(grid_step=90, seed=7)
    buf = io.StringIO()
    writer = BlockWriter(buf, SYNTHETIC, config, baseline_block(1.0, 0.0, 1.0, 0.0))
    head = buf.getvalue()
    extras = extra if isinstance(extra, tuple) else (extra,) * 5
    *cols, flags = [np.full(len(grid_degrees(90)) + e, 0.5) for e in extras]
    with pytest.raises(ValueError):
        writer.write(0, FaultSite(0, 0), *cols, flags < 0.5)
    assert buf.getvalue() == head


def test_reader_memory_per_row(tmp_path):
    # key columns share one object per chunk and no csv row lists are kept
    path = tmp_path / "dj10.csv"
    path.write_text(campaign_csv(build_deutsch_jozsa(), CampaignConfig(grid_step=10)),
                    encoding="utf-8")
    read_table_file(path)  # first-call caches are not per-row memory
    tracemalloc.start()
    try:
        table = read_table_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 12313
    assert peak <= 200 * len(table), peak / len(table)
