"""Fault-injection vulnerability analysis for small quantum circuits.

Build or parse a circuit, sweep single u(theta, phi, 0) faults over every
(gate, qubit) site and a (theta, phi) grid, and score each outcome
distribution with the Quantum Vulnerability Factor:

    pst      = mass on the correct output states
    contrast = (P(A) - P(B)) / (P(A) + P(B))
    qvf      = 1 - (contrast + 1) / 2

>>> import qvf
>>> circuit = qvf.build_grover("11")
>>> records = list(qvf.run_campaign(circuit, qvf.CampaignConfig(grid_step=90)))
>>> len(records)  # 18 sites x 12 grid points, plus the baseline
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
    FaultParams,
    FaultSite,
    FaultSpec,
    enumerate_sites,
    inject,
    run_campaign,
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
    qvf_of_distribution,
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
    QvfRecord,
    RecordFileError,
    RecordTable,
    read_records,
    read_records_file,
    read_table,
    read_table_file,
    write_records,
    write_records_file,
)
from .simulator import (
    OutcomeDistribution,
    SimulationError,
    run_exact,
    sample,
)

__version__ = "0.1.0"
