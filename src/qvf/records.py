"""Campaign record rows and their versioned CSV serialization.

Layout::

    # qvf-csv v1
    circuit_id,site_index,gate_index,qubit,theta_deg,phi_deg,mode,shots,seed,pst,p_b,contrast,qvf,baseline_qvf,improved_flag
    bv-011,-1,-1,-1,0,0,exact,0,7,1.0,0.0,1.0,0.0,0.0,0
    bv-011,0,0,3,0,0,exact,0,7,1.0,0.0,1.0,0.0,0.0,0
    ...

Exactly one baseline row per campaign, flagged by site_index -1, at angle
(0, 0).  Angles are degrees, written as the sweep grid's integers; metrics
use shortest round-trip formatting, so reading a file back gives the values
written.  ``shots`` is 0 for exact-mode rows.  ``improved_flag`` is 1 when
the fault scored more than 1e-12 below the campaign baseline.

:class:`BlockWriter` writes a campaign file from the circuit, the config
and the blocks of :func:`qvf.injector.campaign_blocks`: the schema line,
the header and the baseline row, then the rows of each site block.

A file holds one campaign, and the reader rejects any other: every row
shares circuit_id, mode, shots and seed; every angle and metric value is
finite; qvf and baseline_qvf lie in [0, 1]; ``improved_flag`` is 0 or 1;
only the baseline has a negative index, and it has -1 for site_index,
gate_index and qubit alike; and there is at most one baseline.  An error
names the file line on which the first bad row starts.

:func:`read_table` parses a file into a :class:`RecordTable`: the campaign
key once and one array per other column, ``CHUNK_ROWS`` lines at a time.
Each chunk goes to one ``np.loadtxt`` call, which parses it in C, quoted
fields included; each key column (circuit_id, mode, shots, seed) must hold
one text across the chunk, converted once to one value.  The first chunk
that loadtxt refuses, or that fails a check, hands itself and the rest of
the file to ``csv.reader``: a transpose, and each column converted with
``int()`` or ``float()`` and checked as a whole.  Only a chunk with a bad
value is parsed again row by row, to find the line to name, so every
refused file raises the error of the csv route.  The key is compared with
the first row's once every chunk has parsed, so a bad value is named first.
"""

import csv
import io
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

import numpy as np

from .injector import grid_degrees

SCHEMA_LINE = "# qvf-csv v1"

COLUMNS = (
    "circuit_id", "site_index", "gate_index", "qubit", "theta_deg",
    "phi_deg", "mode", "shots", "seed", "pst", "p_b", "contrast", "qvf",
    "baseline_qvf", "improved_flag",
)


class RecordFileError(ValueError):
    """Record file violates the schema."""


def _csv_text(fields) -> str:
    buf = io.StringIO()
    # "\r\n" quotes a field holding a lone CR, which a reader splits lines at
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2]


def _texts(*columns):
    """The ``repr`` texts of float columns, one list per column, with one
    call per distinct bit pattern (-0.0 and 0.0 are equal, not alike)."""
    values = np.array(columns, dtype=float).ravel()  # unequal lengths raise ValueError
    _, first, index = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    texts = np.array([repr(v) for v in values[first].tolist()], dtype=object)[index]
    return texts.reshape(len(columns), -1).tolist()


class BlockWriter:
    """Writes the campaign file of ``circuit`` under ``config``: the schema,
    header and ``baseline`` row (the site -1 :class:`~qvf.injector.SiteBlock`)
    at once, then one site block per :meth:`write`.  Text is formatted only
    as often as it changes: per campaign, per grid point, per site, and per
    distinct metric bit pattern within a site.  It refuses a circuit_id that
    no reader would take, one over the csv field limit."""

    def __init__(self, stream, circuit, config, baseline):
        circuit_id = circuit.name or "circuit"
        if len(circuit_id) > (limit := csv.field_size_limit()):
            raise ValueError(f"circuit_id is longer than the csv field limit ({limit})")
        self._stream = stream
        # an empty neighbour field keeps csv from quoting a lone empty value
        self._id = _csv_text([circuit_id, ""])
        shots = config.shots if config.mode == "sampled" else 0
        key = _csv_text(["", config.mode, shots, config.seed, ""])
        self._angles = [f"{t},{p}{key}" for t, p in grid_degrees(config.grid_step)]
        base = repr(float(baseline.qvf[0]))
        self._tails = (f",{base},0\n", f",{base},1\n")
        stream.write(f"{SCHEMA_LINE}\n{','.join(COLUMNS)}\n")
        self.write(*baseline)

    def write(self, site_index, site, pst, p_b, contrast, qvf, improved):
        """One site's rows over the grid, or the baseline's one row at (0, 0);
        any array of another length raises ValueError."""
        angles = self._angles if site_index >= 0 else self._angles[:1]
        head = f"{self._id}{site_index},{site.gate_index},{site.qubit},"
        tails = self._tails
        self._stream.write("".join([
            f"{head}{angle}{a},{b},{c},{q}{tails[flag]}"
            for angle, a, b, c, q, flag in zip(
                angles, *_texts(pst, p_b, contrast, qvf), improved.tolist(), strict=True)
        ]))


#: rows parsed per chunk, so a large file is never held as strings at once
CHUNK_ROWS = 1024


def _python_ints(text):
    # shots and seed: a campaign seed may exceed int64
    return np.fromiter(map(int, text), object, len(text))


_TEXT = partial(np.array, dtype=object)
_INT = partial(np.array, dtype=np.int64)
_FLOAT = partial(np.array, dtype=float)

#: converter per column.  numpy parses each str element to int64 or float64
#: with int() and float() themselves, so a bad value raises their error.
_CONVERTERS = (
    _TEXT, _INT, _INT, _INT, _FLOAT, _FLOAT, _TEXT, _python_ints,
    _python_ints, _FLOAT, _FLOAT, _FLOAT, _FLOAT, _FLOAT, _INT,
)


@dataclass(frozen=True, eq=False)
class RecordTable:
    """One campaign's records: its key (circuit_id, mode, shots and seed)
    once, each None when there are no rows, and the other columns as one
    array each, in row order; ``improved`` holds improved_flag.

    site_index, gate_index and qubit are int64, the angles and metrics
    float64, ``improved`` bool.
    """

    circuit_id: str | None
    site_index: np.ndarray
    gate_index: np.ndarray
    qubit: np.ndarray
    theta_deg: np.ndarray
    phi_deg: np.ndarray
    mode: str | None
    shots: int | None
    seed: int | None
    pst: np.ndarray
    p_b: np.ndarray
    contrast: np.ndarray
    qvf: np.ndarray
    baseline_qvf: np.ndarray
    improved: np.ndarray

    def __len__(self):
        return len(self.site_index)


def _checked(cols):
    """Check typed columns (improved_flag as int64) and return them with
    the flag as bool; a bad value raises ValueError that does not say
    which row it is in."""
    (_, site, gate, qubit, theta, phi, _, _, _, *metrics, flag) = cols
    if not np.isfinite(metrics).all():
        raise ValueError("non-finite metric value")
    for name, values in zip(("qvf", "baseline_qvf"), metrics[3:]):
        outside = values[(values < 0) | (values > 1)]
        if outside.size:
            raise ValueError(f"{name} {float(outside[0])} is outside [0, 1]")
    if not np.isfinite([theta, phi]).all():
        raise ValueError("non-finite fault angle")
    bad_flags = flag[(flag != 0) & (flag != 1)]
    if bad_flags.size:
        raise ValueError(f"improved_flag {bad_flags[0]} is not 0 or 1")
    indices = np.array([site, gate, qubit])
    if (indices[:, (indices < 0).any(axis=0)] != -1).any():
        raise ValueError(
            "negative index outside the baseline (site_index, gate_index and "
            "qubit must all be -1)"
        )
    cols[-1] = flag == 1
    return cols


def _columns(rows):
    """Parse and check csv rows column by column; a bad value raises
    ValueError (or OverflowError) that does not say which row it is in."""
    widths = set(map(len, rows)) - {len(COLUMNS)}
    if widths:
        raise ValueError(f"expected {len(COLUMNS)} fields, got {widths.pop()}")
    texts = list(zip(*rows)) or [()] * len(COLUMNS)
    return _checked([convert(text) for convert, text in zip(_CONVERTERS, texts)])


def _chunk_columns(rows, starts):
    """_columns of one chunk; on a bad value, re-parse row by row to name
    the file line where the first bad row starts (``starts``, per row)."""
    try:
        return _columns(rows)
    except (ValueError, OverflowError) as exc:
        if len(rows) == 1:
            raise RecordFileError(f"line {starts[0]}: {exc}") from None
        for row, start in zip(rows, starts):
            _chunk_columns([row], [start])
        raise


#: one row for np.loadtxt, each field of the dtype its converter gives:
#: improved_flag as int64, the key columns (object) as str
_ROW = np.dtype([(name, convert(["0"]).dtype) for name, convert in zip(COLUMNS, _CONVERTERS)])

def _loadtxt_columns(lines, size):
    """Checked columns of ``lines``, ``size`` characters in all, parsed in C
    by np.loadtxt; each key column holds its one value.  None when the rest of
    the file needs the csv route: a blank line, a quoted newline, a row left
    open at the chunk's end, a line over the csv field limit (loadtxt has
    none), a value loadtxt refuses or warns about, a key that changes within
    the chunk, or a failed check."""
    limit = csv.field_size_limit()
    if size > limit and max(map(len, lines)) > limit:
        return None
    try:
        # loadtxt closes a quote left open at the end of its input
        next(csv.reader(lines[-1:], strict=True))
        with warnings.catch_warnings():
            # numpy 1.x parses "2.5" into an int64 field with only a
            # DeprecationWarning; a chunk of blank lines warns too
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None,
                              quotechar='"', ndmin=1)
        if len(rows) != len(lines):  # it skips a blank line and joins a quoted newline
            return None
        cols = []
        for name, convert in zip(COLUMNS, _CONVERTERS):
            col = rows[name]
            if col.dtype == object:  # a campaign key column
                if (col != col[:1]).any():  # a str scalar would lose trailing NULs
                    return None
                cols.append(convert(col[:1]))
            else:
                cols.append(col.copy())  # a view would keep every row alive
        return _checked(cols)
    except (ValueError, OverflowError, Warning, csv.Error):
        return None


def _csv_rows(reader, line):
    """Up to CHUNK_ROWS rows and the file line each starts on, when the
    reader's first line is file line ``line``; a csv.Error becomes a
    RecordFileError naming the line the reader had reached."""
    rows, ends = [], [reader.line_num]  # a quoted newline spans lines
    try:
        for row in islice(reader, CHUNK_ROWS):
            rows.append(row)
            ends.append(reader.line_num)
    except csv.Error as exc:
        raise RecordFileError(f"line {line + reader.line_num - 1}: {exc}") from None
    return rows, line + np.array(ends[:-1])


def _chunks(stream):
    """Typed, checked columns of the rows after the header, one list per
    chunk, and last the file line each key value starts on: a loadtxt chunk
    holds one key value and a csv chunk one per row.  A header-only file
    gives one list of empty columns."""
    yield _columns([]) + [np.array([], int)]  # not range(0): that reads as float
    line = 3
    while (lines := list(islice(stream, CHUNK_ROWS))) and (
            cols := _loadtxt_columns(lines, sum(map(len, lines)))):
        yield cols + [[line]]
        line += len(lines)
    # the refused chunk and the rest of the file: a quoted newline may cross chunks
    reader = csv.reader(chain(lines, stream))
    while (chunk := _csv_rows(reader, line))[0]:
        yield _chunk_columns(*chunk) + [chunk[1]]


def read_table(stream):
    """Parse a record file into a :class:`RecordTable`, ``CHUNK_ROWS`` rows
    at a time; raises RecordFileError on any schema problem."""
    first = stream.readline().rstrip("\r\n")
    if first != SCHEMA_LINE:
        raise RecordFileError(
            f"unsupported schema line {first!r} (expected {SCHEMA_LINE!r})"
        )
    try:
        header = next(csv.reader(stream))  # reads no further than the header
    except StopIteration:
        raise RecordFileError("missing header row") from None
    except csv.Error as exc:
        raise RecordFileError(f"line 2: {exc}") from None
    if tuple(header) != COLUMNS:
        raise RecordFileError(f"unexpected header {header!r}")
    *columns, starts = zip(*_chunks(stream))
    for i, parts in enumerate(columns):
        columns[i] = np.concatenate(parts)  # frees each column's chunks in turn
    # the key columns, object arrays: one entry per loadtxt chunk or csv row
    key = [col for col in columns if col.dtype == object]
    differ = np.flatnonzero(np.any([col != col[:1] for col in key], axis=0))
    if differ.size:
        raise RecordFileError(f"line {np.concatenate(starts)[differ[0]]}: "
                              "circuit_id, mode, shots or seed differ from line 3")
    table = RecordTable(*(next(iter(col), None) if col.dtype == object else col
                          for col in columns))
    baselines = int((table.site_index < 0).sum())
    if baselines > 1:
        raise RecordFileError(f"{baselines} baseline rows (expected at most 1)")
    return table


def read_table_file(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_table(fh)
