"""Fault-injection vulnerability analysis for small quantum circuits.

Build or parse a circuit, sweep single u(theta, phi, 0) faults over every
(gate, qubit) site and a (theta, phi) grid, and score each outcome
distribution with the Quantum Vulnerability Factor:

    pst      = mass on the correct output states
    contrast = (P(A) - P(B)) / (P(A) + P(B))
    qvf      = 1 - (contrast + 1) / 2

:func:`measured_probabilities` gives a circuit's outcome distribution as an
array, :func:`draw_counts` samples shots from it and :func:`score` scores it
against a mask of the correct outcomes.  A campaign does so per site block:

>>> import io, qvf
>>> config = qvf.CampaignConfig(grid_step=90)
>>> circuit = qvf.build_grover("11")
>>> baseline, blocks = qvf.campaign_blocks(circuit, config)
>>> buf = io.StringIO()
>>> writer = qvf.BlockWriter(buf, circuit, config, baseline)
>>> for block in blocks:
...     writer.write(*block)
>>> len(qvf.read_table(io.StringIO(buf.getvalue())))  # 18 sites x 12 points + baseline
217
"""

from .benchmarks import (
    build_bernstein_vazirani,
    build_deutsch_jozsa,
    build_grover,
)
from .circuit import Circuit, CircuitError, Gate
from .injector import (
    CampaignConfig,
    CampaignError,
    FaultSite,
    campaign_blocks,
    enumerate_sites,
    grid_degrees,
)
from .metrics import (
    HeatmapGrid,
    HistogramStats,
    MetricsError,
    MetricSummary,
    aggregate_heatmap,
    delta_qvf,
    histogram_stats,
    qvf,
    score,
    timeline,
)
from .noise import (
    NoiseConfigError,
    NoiseModel,
    load_noise_config,
    load_noise_file,
)
from .qasm import QasmError, emit_qasm, parse_qasm
from .records import (
    BlockWriter,
    RecordFileError,
    RecordTable,
    read_table,
    read_table_file,
)
from .simulator import SimulationError, draw_counts, measured_probabilities

__version__ = "0.1.0"
