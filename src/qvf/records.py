"""Campaign record rows and their versioned CSV serialization.

Layout::

    # qvf-csv v1
    circuit_id,site_index,gate_index,qubit,theta_deg,phi_deg,mode,shots,seed,pst,p_b,contrast,qvf,baseline_qvf,improved_flag
    bv-011,-1,-1,-1,0,0,exact,0,7,1.0,0.0,1.0,0.0,0.0,0
    bv-011,0,0,3,0,0,exact,0,7,1.0,0.0,1.0,0.0,0.0,0
    ...

Exactly one baseline row per campaign, flagged by site_index -1.  Angles
are degrees (integers whenever they sit on a degree lattice, which covers
every sweep grid); other floats use shortest round-trip formatting, so
parse(write(rows)) reproduces the rows exactly.  ``shots`` is 0 for
exact-mode rows.  ``improved_flag`` is 1 when the fault scored more than
1e-12 below the campaign baseline.  A file holds one campaign: every row
shares circuit_id, mode, shots and seed, and every metric value is finite.
"""

import csv
import io
import math
from dataclasses import dataclass

SCHEMA_LINE = "# qvf-csv v1"

COLUMNS = (
    "circuit_id", "site_index", "gate_index", "qubit", "theta_deg",
    "phi_deg", "mode", "shots", "seed", "pst", "p_b", "contrast", "qvf",
    "baseline_qvf", "improved_flag",
)


class RecordFileError(ValueError):
    """Record file violates the schema."""


@dataclass(frozen=True)
class QvfRecord:
    """One campaign result row (the baseline row uses site_index -1)."""

    circuit_id: str
    site_index: int
    gate_index: int
    qubit: int
    theta_deg: float
    phi_deg: float
    mode: str
    shots: int
    seed: int
    pst: float
    p_b: float
    contrast: float
    qvf: float
    baseline_qvf: float
    improved: bool


def _fmt_angle(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _row(record: QvfRecord):
    return [
        record.circuit_id,
        str(record.site_index),
        str(record.gate_index),
        str(record.qubit),
        _fmt_angle(record.theta_deg),
        _fmt_angle(record.phi_deg),
        record.mode,
        str(record.shots),
        str(record.seed),
        _fmt_float(record.pst),
        _fmt_float(record.p_b),
        _fmt_float(record.contrast),
        _fmt_float(record.qvf),
        _fmt_float(record.baseline_qvf),
        "1" if record.improved else "0",
    ]


def write_records(stream, records):
    """Write the schema line, header, and rows; returns the row count."""
    stream.write(SCHEMA_LINE + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    count = 0
    for record in records:
        writer.writerow(_row(record))
        count += 1
    return count


def records_to_string(records) -> str:
    buf = io.StringIO()
    write_records(buf, records)
    return buf.getvalue()


def _parse_row(row, lineno):
    if len(row) != len(COLUMNS):
        raise RecordFileError(
            f"line {lineno}: expected {len(COLUMNS)} fields, got {len(row)}"
        )
    try:
        record = QvfRecord(
            circuit_id=row[0],
            site_index=int(row[1]),
            gate_index=int(row[2]),
            qubit=int(row[3]),
            theta_deg=float(row[4]),
            phi_deg=float(row[5]),
            mode=row[6],
            shots=int(row[7]),
            seed=int(row[8]),
            pst=float(row[9]),
            p_b=float(row[10]),
            contrast=float(row[11]),
            qvf=float(row[12]),
            baseline_qvf=float(row[13]),
            improved=bool(int(row[14])),
        )
    except ValueError as exc:
        raise RecordFileError(f"line {lineno}: {exc}") from None
    metrics = (record.pst, record.p_b, record.contrast, record.qvf, record.baseline_qvf)
    if not all(map(math.isfinite, metrics)):
        raise RecordFileError(f"line {lineno}: non-finite metric value")
    return record


def _campaign_key(record: QvfRecord):
    return (record.circuit_id, record.mode, record.shots, record.seed)


def read_records(stream):
    """Parse a record file; raises RecordFileError on any schema problem."""
    first = stream.readline().rstrip("\n")
    if first != SCHEMA_LINE:
        raise RecordFileError(
            f"unsupported schema line {first!r} (expected {SCHEMA_LINE!r})"
        )
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise RecordFileError("missing header row") from None
    if tuple(header) != COLUMNS:
        raise RecordFileError(f"unexpected header {header!r}")
    records = [_parse_row(row, lineno) for lineno, row in enumerate(reader, start=3)]
    for lineno, record in enumerate(records, start=3):
        if _campaign_key(record) != _campaign_key(records[0]):
            raise RecordFileError(
                f"line {lineno}: circuit_id, mode, shots or seed differ from line 3"
            )
    baselines = [r for r in records if r.site_index < 0]
    if len(baselines) > 1:
        raise RecordFileError(f"{len(baselines)} baseline rows (expected at most 1)")
    return records


def read_records_file(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_records(fh)


def write_records_file(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        return write_records(fh, records)
