"""Vulnerability metrics and campaign aggregations.

The per-distribution chain, computed by :func:`score` on a probability
vector, or column by column on a (2^m, G) block, and a mask of correct
outcomes (the dict API builds both):

* ``pst``: total mass on the designated correct states.
* ``michelson_contrast``: (P(A) - P(B)) / (P(A) + P(B)) where P(A) is the
  correct mass and P(B) the largest single incorrect-state mass.
* ``qvf``: 1 - (contrast + 1) / 2.  0 means confidently correct, 0.5 a
  dubious output, 1 confidently wrong.

Aggregations consume campaign records (see :mod:`qvf.records`): mean-QVF
heatmaps over the fault grid, grouped per circuit / qubit / site, cellwise
grid differences, per-qubit depth series at a fixed fault, and histogram
statistics.  Baseline rows (site_index < 0) are excluded from every
aggregation.
"""

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Raised for degenerate distributions or out-of-range inputs."""


def _vector(dist, correct):
    """A distribution's entry probabilities and their correct-state mask."""
    if not correct:
        raise MetricsError("correct-state set is empty")
    widths = {len(s) for s in correct} | {len(s) for s in dist.entries}
    if len(widths) > 1:
        raise MetricsError(f"mixed bitstring lengths {sorted(widths)}")
    probs = dist.probabilities()
    return (
        np.array(list(probs.values()), dtype=float),
        np.array([state in correct for state in probs], dtype=bool),
    )


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


def pst(dist, correct) -> float:
    """Probability of a successful trial: mass on the correct states."""
    return float(_masses(*_vector(dist, correct))[0][0])


def highest_incorrect(dist, correct) -> float:
    """Largest single-state mass outside the correct set (0 if none)."""
    return float(_masses(*_vector(dist, correct))[1][0])


def michelson_contrast(dist, correct) -> float:
    """(P(A) - P(B)) / (P(A) + P(B)); in [-1, 1]."""
    return score(*_vector(dist, correct)).contrast


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


def qvf_of_distribution(dist, correct) -> MetricSummary:
    """Full metric chain for one distribution."""
    return score(*_vector(dist, correct))


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


def _fault_records(records):
    return [r for r in records if r.site_index >= 0]


def _grid_axes(records):
    thetas = tuple(sorted({r.theta_deg for r in records}))
    phis = tuple(sorted({r.phi_deg for r in records}))
    return thetas, phis


def _mean_grid(records, thetas, phis, group) -> HeatmapGrid:
    sums = np.zeros((len(thetas), len(phis)))
    counts = np.zeros_like(sums)
    ti = {t: i for i, t in enumerate(thetas)}
    pj = {p: j for j, p in enumerate(phis)}
    for r in records:
        sums[ti[r.theta_deg], pj[r.phi_deg]] += r.qvf
        counts[ti[r.theta_deg], pj[r.phi_deg]] += 1
    if (counts == 0).any():
        raise MetricsError(f"empty (theta, phi) cell in group {group!r}")
    return HeatmapGrid(thetas, phis, sums / counts, group)


def aggregate_heatmap(records, grouping: str = "circuit"):
    """Mean-QVF grids from fault records.

    grouping "circuit" returns one HeatmapGrid; "qubit" and "site" return a
    dict keyed by qubit index / site index.
    """
    records = _fault_records(records)
    if not records:
        raise MetricsError("no fault records to aggregate")
    thetas, phis = _grid_axes(records)
    if grouping == "circuit":
        return _mean_grid(records, thetas, phis, "circuit")
    if grouping == "qubit":
        keys = sorted({r.qubit for r in records})
        attr = "qubit"
    elif grouping == "site":
        keys = sorted({r.site_index for r in records})
        attr = "site_index"
    else:
        raise MetricsError(f"unknown grouping {grouping!r}")
    out = {}
    for key in keys:
        grp = [r for r in records if getattr(r, attr) == key]
        out[key] = _mean_grid(grp, thetas, phis, f"{grouping}:{key}")
    return out


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


def timeline(records, theta_deg, phi_deg) -> dict:
    """Per-qubit (gate_index, qvf) series at one fixed fault parameter.

    Series are ordered by gate index (circuit depth).  Raises if the
    (theta, phi) pair is absent from the records.
    """
    records = _fault_records(records)
    picked = [
        r for r in records if r.theta_deg == theta_deg and r.phi_deg == phi_deg
    ]
    if not picked:
        raise MetricsError(
            f"no records at theta={theta_deg}, phi={phi_deg}"
        )
    series = {}
    for r in sorted(picked, key=lambda r: (r.qubit, r.gate_index)):
        series.setdefault(r.qubit, []).append((r.gate_index, r.qvf))
    return series


@dataclass(frozen=True)
class HistogramStats:
    mean: float
    stddev: float
    counts: tuple
    bin_edges: tuple


def histogram_stats(records, bins: int = 50) -> HistogramStats:
    """Population mean/stddev of fault QVFs plus equal-width bins on [0, 1]."""
    if bins < 1:
        raise MetricsError("bins must be >= 1")
    values = [r.qvf for r in _fault_records(records)]
    if not values:
        raise MetricsError("no fault records")
    arr = np.asarray(values)
    counts, edges = np.histogram(arr, bins=bins, range=(0.0, 1.0))
    return HistogramStats(
        mean=float(arr.mean()),
        stddev=float(arr.std()),
        counts=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
    )
