"""Vulnerability metrics and campaign aggregations.

The per-distribution chain, computed by :func:`score` on a probability
vector (as :func:`qvf.simulator.measured_probabilities` gives it), or
column by column on a (2^m, G) block, and a boolean mask over its rows
marking the correct outcomes, gives a :class:`MetricSummary` of:

* ``pst``: total mass on the designated correct states.
* ``p_b``: the largest single incorrect-state mass.
* ``contrast``: (P(A) - P(B)) / (P(A) + P(B)) with P(A) = ``pst`` and
  P(B) = ``p_b``.
* ``qvf``: 1 - (contrast + 1) / 2.  0 means confidently correct, 0.5 a
  dubious output, 1 confidently wrong.

Aggregations consume a campaign's :class:`~qvf.records.RecordTable`, as
:func:`qvf.records.read_table` parses it: mean-QVF heatmaps over the fault
grid, grouped per circuit / qubit / site, cellwise grid differences,
per-qubit depth series at a fixed fault, and histogram statistics.  They
compute on the table's column arrays.  Axes and groups come from
``np.unique``; ``np.bincount`` sums each flat cell index in row order, so
every mean is the one a record-by-record loop gives, bit for bit.  No grid
has more cells than rows, and baseline rows (site_index < 0) are left out.
"""

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Raised for degenerate distributions or out-of-range inputs."""


#: most histogram bins: bins of 1e-4 on [0, 1] are finer than any report needs
MAX_BINS = 10_000


def _masses(probs, correct_mask):
    """(P(A), P(B)) per column of a vector or (2^m, G) block: the correct
    rows summed one by one in row order, and the largest other row (0 if
    there is none)."""
    block = probs if probs.ndim == 2 else probs[:, None]
    pa = np.zeros(block.shape[1])
    for row in block[correct_mask]:
        pa = pa + row
    incorrect = block[~correct_mask]
    pb = incorrect.max(axis=0) if len(incorrect) else np.zeros(block.shape[1])
    return pa, pb


def qvf(contrast):
    """Map contrast in [-1, 1] to vulnerability in [0, 1]; elementwise on
    an array."""
    c = np.asarray(contrast, dtype=float)
    outside = ~((-1.0 - 1e-12 <= c) & (c <= 1.0 + 1e-12))
    if outside.any():
        raise MetricsError(f"contrast {float(c[outside][0])!r} out of range")
    result = 1.0 - (c + 1.0) / 2.0
    return float(result) if c.ndim == 0 else result


@dataclass(frozen=True)
class MetricSummary:
    pst: float
    p_b: float
    contrast: float
    qvf: float


def score(probs, correct_mask) -> MetricSummary:
    """Full metric chain for a probability vector, or for each column of a
    (2^m, G) block, and a boolean mask over the rows marking the correct
    outcomes; entries to be ignored must already be zero.  A vector gives
    float fields, a block arrays of G values."""
    probs = np.asarray(probs, dtype=float)
    pa, pb = _masses(probs, correct_mask)
    if (pa + pb == 0.0).any():
        raise MetricsError("contrast undefined: no mass on any counted state")
    contrast = (pa - pb) / (pa + pb)
    fields = (pa, pb, contrast, qvf(contrast))
    if probs.ndim == 1:
        fields = tuple(float(v[0]) for v in fields)
    return MetricSummary(*fields)


# ---------------------------------------------------------------------------
# campaign aggregations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatmapGrid:
    """Mean QVF per (theta, phi) cell for one record group.

    ``cells[i, j]`` is the mean over records at theta_degs[i], phi_degs[j].
    ``group`` names the grouping ("circuit", "qubit:N", or "site:N").
    """

    theta_degs: tuple
    phi_degs: tuple
    cells: np.ndarray
    group: str = "circuit"

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.shape != (len(self.theta_degs), len(self.phi_degs)):
            raise MetricsError("cell block does not match the axes")
        object.__setattr__(self, "cells", cells)


def _axis(column):
    """``np.unique(column, return_inverse=True)`` in a third of its memory; counts keep
    np.unique sorting a copy, not building a hash table that costs 1.4 MB on first use."""
    return (values := np.unique(column, return_counts=True)[0]), np.searchsorted(values, column)


def aggregate_heatmap(table, grouping: str = "circuit"):
    """Mean-QVF grids from the fault records of a RecordTable.

    grouping "circuit" returns one HeatmapGrid; "qubit" and "site" return a
    dict keyed by qubit index / site index.  Each cell's sum adds its
    records in row order.  An empty cell raises for the first such group.
    """
    faults = table.site_index >= 0
    if not faults.any():
        raise MetricsError("no fault records to aggregate")
    if grouping == "circuit":
        keys, cell = np.zeros(1, dtype=np.int64), 0
    elif grouping in ("qubit", "site"):
        keys, cell = _axis((table.qubit if grouping == "qubit" else table.site_index)[faults])
    else:
        raise MetricsError(f"unknown grouping {grouping!r}")
    thetas, ti = _axis(table.theta_deg[faults])
    phis, pj = _axis(table.phi_deg[faults])
    size = len(thetas) * len(phis)  # cells per group
    if len(keys) * size > len(pj):  # Python ints: some cell is empty, and int64 could wrap
        pairs = np.unique(np.stack(np.broadcast_arrays(cell, ti * len(phis) + pj)), axis=1)
        filled = np.bincount(pairs[0], minlength=len(keys))  # distinct cells per group
    else:
        cell = (cell * len(thetas) + ti) * len(phis) + pj
        sums = np.bincount(cell, table.qvf[faults], len(keys) * size).reshape(len(keys), len(thetas), -1)
        counts = np.bincount(cell, minlength=sums.size).reshape(sums.shape)
        filled = np.count_nonzero(counts, axis=(1, 2))
    names = ["circuit"] if grouping == "circuit" else [f"{grouping}:{k}" for k in keys.tolist()]
    if (filled < size).any():
        raise MetricsError(f"empty (theta, phi) cell in group {names[np.argmax(filled < size)]!r}")
    thetas, phis = tuple(thetas.tolist()), tuple(phis.tolist())
    grids = [HeatmapGrid(thetas, phis, s / c, name) for s, c, name in zip(sums, counts, names)]
    return grids[0] if grouping == "circuit" else dict(zip(keys.tolist(), grids))


def delta_qvf(grid_a: HeatmapGrid, grid_b: HeatmapGrid) -> HeatmapGrid:
    """Cellwise difference grid_a - grid_b; axes must match exactly."""
    if grid_a.theta_degs != grid_b.theta_degs or grid_a.phi_degs != grid_b.phi_degs:
        raise MetricsError("grids have different axes")
    return HeatmapGrid(
        grid_a.theta_degs,
        grid_a.phi_degs,
        grid_a.cells - grid_b.cells,
        f"delta({grid_a.group},{grid_b.group})",
    )


def timeline(table, theta_deg, phi_deg) -> dict:
    """Per-qubit (gate_index, qvf) series of a RecordTable at one fixed
    fault parameter.

    Series are ordered by gate index (circuit depth), ties in row order.
    Raises if the (theta, phi) pair is absent from the fault records.
    """
    picked = np.flatnonzero(
        (table.site_index >= 0)
        & (table.theta_deg == theta_deg)
        & (table.phi_deg == phi_deg)
    )
    if not picked.size:
        raise MetricsError(
            f"no records at theta={theta_deg}, phi={phi_deg}"
        )
    order = picked[np.lexsort((table.gate_index[picked], table.qubit[picked]))]
    series = {}
    for qubit, gate, value in zip(table.qubit[order].tolist(),
                                  table.gate_index[order].tolist(),
                                  table.qvf[order].tolist()):
        series.setdefault(qubit, []).append((gate, value))
    return series


@dataclass(frozen=True)
class HistogramStats:
    mean: float
    stddev: float
    counts: tuple
    bin_edges: tuple


def histogram_stats(table, bins: int = 50) -> HistogramStats:
    """Population mean/stddev of a RecordTable's fault QVFs plus equal-width
    bins on [0, 1]."""
    if bins < 1:
        raise MetricsError("bins must be >= 1")
    if bins > MAX_BINS:
        raise MetricsError(f"bins must be <= {MAX_BINS}")
    arr = table.qvf[table.site_index >= 0]
    if not arr.size:
        raise MetricsError("no fault records")
    counts, edges = np.histogram(arr, bins=bins, range=(0.0, 1.0))
    return HistogramStats(
        mean=float(arr.mean()),
        stddev=float(arr.std()),
        counts=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
    )
