"""Shared random-circuit generators, distribution adapters and campaign
runners for the test suite."""

import dataclasses
import io
import math
from collections import namedtuple

import numpy as np

from qvf.circuit import Circuit, index_to_bitstring
from qvf.injector import campaign_blocks
from qvf.metrics import score
from qvf.records import BlockWriter, RecordTable, read_table
from qvf.simulator import measured_probabilities

#: one record row, a field per RecordTable column
QvfRecord = namedtuple("QvfRecord", [f.name for f in dataclasses.fields(RecordTable)])

GATE_POOL = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "u", "cx", "cz")


def random_gates(rng, n_qubits, n_gates):
    pool = GATE_POOL if n_qubits >= 2 else GATE_POOL[:-2]
    gates = []
    for _ in range(n_gates):
        name = pool[rng.integers(len(pool))]
        if name in ("cx", "cz"):
            q = tuple(rng.choice(n_qubits, size=2, replace=False))
        else:
            q = (int(rng.integers(n_qubits)),)
        params = tuple(rng.uniform(0, 2 * math.pi, size=3)) if name == "u" else ()
        gates.append((name, tuple(int(x) for x in q), params))
    return gates


def random_circuit(rng, max_qubits=4, max_gates=12):
    n = int(rng.integers(1, max_qubits + 1))
    gates = random_gates(rng, n, int(rng.integers(1, max_gates + 1)))
    k = int(rng.integers(1, n + 1))
    measured = tuple(int(q) for q in rng.permutation(n)[:k])
    name = f"random-{rng.integers(10**6)}" if rng.random() < 0.5 else None
    correct = None
    if rng.random() < 0.5:
        correct = {
            "".join(rng.choice(["0", "1"], size=k))
            for _ in range(int(rng.integers(1, 3)))
        }
    return Circuit(n, gates, measured, name=name, correct_states=correct)


def entries(circuit, noise=None) -> dict:
    """measured_probabilities as a ``{bitstring: p}`` dict in index order,
    without the entries at or below 1e-14."""
    width = len(circuit.measured)
    return {
        index_to_bitstring(i, width): float(p)
        for i, p in enumerate(measured_probabilities(circuit, noise))
        if p > 1e-14
    }


def score_entries(entries, correct, shots=None):
    """qvf.metrics.score of a ``{bitstring: p}`` dict, or of shot counts
    when ``shots`` is given, with the states in ``correct`` marked."""
    probs = np.array(list(entries.values()), dtype=float)
    if shots is not None:
        probs = probs / shots
    return score(probs, np.array([s in correct for s in entries], dtype=bool))


def campaign_csv(circuit, config) -> str:
    """The record file of a campaign, written as ``qvf campaign run`` does:
    a BlockWriter fed the site blocks of campaign_blocks."""
    buf = io.StringIO()
    baseline, blocks = campaign_blocks(circuit, config)
    writer = BlockWriter(buf, circuit, config, baseline)
    for block in blocks:
        writer.write(*block)
    return buf.getvalue()


def table_rows(table):
    """The rows of a RecordTable as QvfRecords, in file order, each with the
    table's one campaign key."""
    columns = [getattr(table, name) for name in QvfRecord._fields]
    return list(map(QvfRecord, *(
        col.tolist() if isinstance(col, np.ndarray) else [col] * len(table) for col in columns)))


def campaign_rows(circuit, config):
    """A campaign's records as QvfRecords: :func:`campaign_csv` parsed back
    by read_table."""
    return table_rows(read_table(io.StringIO(campaign_csv(circuit, config))))
