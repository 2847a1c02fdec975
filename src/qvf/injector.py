"""Fault-site enumeration, the (theta, phi) grid, circuit mutation, and
full injection campaigns.

A fault is one u(theta, phi, 0) gate inserted immediately after an
existing gate on one of that gate's target qubits.  Sites therefore map
1:1 onto (gate, target-qubit) pairs; a two-qubit gate contributes two
sites.  The measurement boundary is not a site: faults attach to gates
only.

Injected gates are ordinary circuit gates from then on; in particular a
noise model treats them like any other u gate (duration, depolarizing),
so under noise even a (0, 0) fault can score slightly worse than the
fault-free baseline.

Campaigns sweep every site against every grid point, preceded by one
fault-free baseline record (site_index -1).  Records stream in canonical
order (site-major, grid-minor) no matter how many workers run, and every
sampled record draws from its own seed sequence derived from
(campaign seed, site, grid point), so reruns and re-schedules are
byte-identical.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .circuit import Circuit, Gate, bitstring_to_index
from .metrics import score
from .records import QvfRecord
from .simulator import PROB_FLOOR, SimulationError, draw_counts, measured_probabilities

import numpy as np


@dataclass(frozen=True)
class FaultSite:
    """One injectable position: a gate index and one of its targets."""

    gate_index: int
    qubit: int


@dataclass(frozen=True)
class FaultParams:
    """Rotation angles of an injected u gate; lam is pinned to 0."""

    theta: float  # radians, [0, pi]
    phi: float  # radians, [0, 2*pi)
    lam: float = 0.0

    def __post_init__(self):
        if self.lam != 0.0:
            raise ValueError("fault gates fix lam = 0")
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta {self.theta!r} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi {self.phi!r} outside [0, 2*pi)")


@dataclass(frozen=True)
class FaultSpec:
    site: FaultSite
    params: FaultParams


class CampaignError(RuntimeError):
    """A campaign aborted; the offending fault is named in the message."""


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep settings.

    mode "exact" records the analytic distribution; "sampled" draws
    ``shots`` counts per record.  ``sites`` limits the sweep to a subset of
    site indices (indices keep their meaning from the full enumeration).
    ``jobs`` > 1 fans sites out across processes.
    """

    grid_step: int = 15
    shots: int = 1024
    mode: str = "exact"
    noise: object = None
    seed: int = 0
    sites: tuple = None
    jobs: int = 1

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        grid_degrees(self.grid_step)  # validates the step
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.sites is not None:
            object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))


def enumerate_sites(circuit: Circuit):
    """All fault sites in circuit order, one per (gate, target) pair."""
    sites = []
    for gi, gate in enumerate(circuit.gates):
        for q in gate.qubits:
            sites.append(FaultSite(gi, q))
    return sites


def grid_degrees(step: int = 15):
    """(theta_deg, phi_deg) integer pairs of the sweep lattice.

    phi runs over {0, step, ..., 360 - step} degrees and theta over
    {0, step, ..., 180}; theta is the outer (slower) axis, so the first
    element is (0, 0).  A 15 degree step gives 13 * 24 = 312 points.
    ``step`` must be a positive divisor of 360.
    """
    if step < 1 or 360 % step != 0:
        raise ValueError(f"grid step {step} is not a positive divisor of 360")
    return [(t, p) for t in range(0, 181, step) for p in range(0, 360, step)]


def build_grid(step: int = 15):
    """Fault parameters on the sweep lattice, in grid_degrees order."""
    return [
        FaultParams(math.radians(t), math.radians(p)) for t, p in grid_degrees(step)
    ]


def inject(circuit: Circuit, faults) -> Circuit:
    """New circuit with one u(theta, phi, 0) gate per fault.

    Each fault gate lands immediately after its site's gate, on the
    site's qubit; for several faults behind one gate the insertion order
    follows the fault list.  The input circuit is not modified.
    """
    sites = enumerate_sites(circuit)
    valid = {(s.gate_index, s.qubit) for s in sites}
    followers = {}
    for fault in faults:
        key = (fault.site.gate_index, fault.site.qubit)
        if key not in valid:
            raise ValueError(
                f"no site at gate {fault.site.gate_index}, qubit {fault.site.qubit}"
            )
        followers.setdefault(fault.site.gate_index, []).append(fault)
    gates = []
    for gi, gate in enumerate(circuit.gates):
        gates.append(gate)
        for fault in followers.get(gi, ()):
            p = fault.params
            gates.append(Gate("u", (fault.site.qubit,), (p.theta, p.phi, p.lam)))
    return replace(circuit, gates=tuple(gates))


# ---------------------------------------------------------------------------
# campaign runner
# ---------------------------------------------------------------------------


def _correct_mask(circuit: Circuit) -> np.ndarray:
    """Boolean mask over measured-outcome indices marking the correct states."""
    if not circuit.correct_states:
        raise CampaignError(
            "circuit has no correct_states metadata; derive or supply one"
        )
    mask = np.zeros(2 ** len(circuit.measured), dtype=bool)
    mask[[bitstring_to_index(s) for s in circuit.correct_states]] = True
    return mask


def _record_seed(campaign_seed: int, site_index: int, grid_index: int):
    # site slot 0 is the baseline; fault sites start at 1
    return np.random.SeedSequence([campaign_seed, site_index + 1, grid_index])


def _measure(circuit, config, mask, seed_seq):
    """Metric summary of one circuit run under the campaign settings."""
    probs = measured_probabilities(circuit, config.noise)
    if config.mode == "sampled":
        probs = draw_counts(probs, config.shots, seed_seq) / config.shots
    else:
        probs = np.where(probs > PROB_FLOOR, probs, 0.0)
    return score(probs, mask)


def _record(circuit_id, config, site_index, site, angles, summary, baseline_qvf):
    """One campaign row; the baseline passes site None and its own qvf."""
    return QvfRecord(
        circuit_id=circuit_id,
        site_index=site_index,
        gate_index=site.gate_index if site else -1,
        qubit=site.qubit if site else -1,
        theta_deg=float(angles[0]),
        phi_deg=float(angles[1]),
        mode=config.mode,
        shots=config.shots if config.mode == "sampled" else 0,
        seed=config.seed,
        pst=summary.pst,
        p_b=summary.p_b,
        contrast=summary.contrast,
        qvf=summary.qvf,
        baseline_qvf=baseline_qvf,
        improved=summary.qvf < baseline_qvf,
    )


def _site_worker(args):
    """All grid records for one site; runs in a worker process."""
    circuit, config, mask, circuit_id, site_index, site, degs, baseline_qvf = args
    records = []
    for grid_index, (t_deg, p_deg) in enumerate(degs):
        params = FaultParams(math.radians(t_deg), math.radians(p_deg))
        faulted = inject(circuit, [FaultSpec(site, params)])
        try:
            summary = _measure(
                faulted, config, mask, _record_seed(config.seed, site_index, grid_index)
            )
        except SimulationError as exc:
            raise CampaignError(
                f"simulation failed at site {site_index} "
                f"(gate {site.gate_index}, qubit {site.qubit}), "
                f"theta={t_deg} phi={p_deg}: {exc}"
            ) from exc
        records.append(_record(
            circuit_id, config, site_index, site, (t_deg, p_deg), summary, baseline_qvf
        ))
    return records


def _baseline(circuit, config, mask, circuit_id):
    summary = _measure(circuit, config, mask, _record_seed(config.seed, -1, 0))
    return _record(circuit_id, config, -1, None, (0, 0), summary, summary.qvf)


def baseline_record(circuit: Circuit, config: CampaignConfig, circuit_id=None) -> QvfRecord:
    """Fault-free reference row, evaluated with the campaign settings."""
    return _baseline(
        circuit, config, _correct_mask(circuit),
        circuit_id or circuit.name or "circuit",
    )


def run_campaign(circuit: Circuit, config: CampaignConfig = CampaignConfig()):
    """Stream campaign records: the baseline first, then site-major sweeps.

    Yields one QvfRecord per (site, grid point); the total fault-record
    count is len(sites) * len(grid).  Output order and values depend only
    on the circuit and config, never on worker scheduling.
    """
    mask = _correct_mask(circuit)
    all_sites = enumerate_sites(circuit)
    if config.sites is None:
        picked = list(enumerate(all_sites))
    else:
        for s in config.sites:
            if not 0 <= s < len(all_sites):
                raise CampaignError(f"site index {s} out of range")
        picked = [(s, all_sites[s]) for s in config.sites]
    circuit_id = circuit.name or "circuit"
    base = _baseline(circuit, config, mask, circuit_id)
    yield base

    degs = grid_degrees(config.grid_step)
    jobs = [
        (circuit, config, mask, circuit_id, idx, site, degs, base.qvf)
        for idx, site in picked
    ]
    if config.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for records in pool.map(_site_worker, jobs):
                yield from records
    else:
        for job in jobs:
            yield from _site_worker(job)
