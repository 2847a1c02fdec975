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

A noiseless site is swept as one state block: the state after the site's
gate is computed once and copied into a (2^n, G) block with one column
per grid point, the G fault rotations act on it in one broadcast step,
and the remaining gates run on the whole block (in column chunks of at
most ``BLOCK_AMPLITUDES`` amplitudes).  Every column undergoes exactly
the floating-point operations that simulating its injected circuit alone
would, so the records are bit-identical to the one-circuit-per-record
route of :func:`inject` and :func:`qvf.simulator.measured_probabilities`.
Under noise each injected circuit is evolved on its own.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .circuit import Circuit, Gate, bitstring_to_index
from .gates import gate_matrix
from .metrics import score
from .records import QvfRecord
from .simulator import (
    PROB_FLOOR,
    SimulationError,
    apply_gate,
    apply_matrix,
    check_norm,
    draw_counts,
    marginalize,
    measured_probabilities,
    zero_state,
)

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


#: amplitudes in one noiseless state block: a site's grid is swept in
#: column chunks of at most this size (one column at least), so peak
#: memory does not grow with the grid
BLOCK_AMPLITUDES = 1 << 16


class CampaignError(RuntimeError):
    """A campaign aborted; the offending site is named in the message."""


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
            sites = tuple(int(s) for s in self.sites)
            if len(set(sites)) != len(sites):
                raise ValueError(f"duplicate site indices in {list(sites)}")
            object.__setattr__(self, "sites", sites)


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


def _fault_gates(degs):
    """One canonical u(theta, phi, 0) gate on qubit 0 per grid point."""
    return tuple(
        Gate("u", (0,), (math.radians(t), math.radians(p), 0.0)) for t, p in degs
    )


def _site_blocks(circuit, noise, site, faults, mats):
    """(first grid index, probabilities) per column chunk of one site's grid.

    Each block holds one measured-probability column per fault.  Noiseless,
    the prefix state up to the site's gate is computed once and copied into
    a (2^n, chunk) block, the fault rotations act on it as one broadcast
    2x2 step and the suffix gates run on the whole block.  Under noise each
    faulted circuit is evolved on its own and the vectors are stacked.
    """
    gates, cut = circuit.gates, site.gate_index + 1
    if noise is not None:
        yield 0, np.column_stack([
            measured_probabilities(replace(
                circuit,
                gates=gates[:cut] + (replace(f, qubits=(site.qubit,)),) + gates[cut:],
            ), noise)
            for f in faults
        ])
        return
    n = circuit.n_qubits
    prefix = zero_state(n)
    for gate in gates[:cut]:
        apply_gate(prefix, n, gate)
    chunk = max(1, BLOCK_AMPLITUDES >> n)
    for start in range(0, len(mats), chunk):
        rotations = mats[start:start + chunk]
        block = np.repeat(prefix[:, None], len(rotations), axis=1)
        apply_matrix(block, n, rotations, (site.qubit,))
        for gate in gates[cut:]:
            apply_gate(block, n, gate)
        check_norm(block)
        yield start, marginalize(np.abs(block) ** 2, n, circuit.measured)


def _mode_probs(probs, config, site_index, start):
    """Apply the campaign mode to a block of exact probabilities whose
    columns are grid points ``start``, ``start + 1``, ... of a site: shot
    frequencies from each record's own seed when sampled, else the entries
    above PROB_FLOOR."""
    if config.mode == "sampled":
        counts = [
            draw_counts(col, config.shots, _record_seed(config.seed, site_index, start + j))
            for j, col in enumerate(probs.T)
        ]
        return np.column_stack(counts) / config.shots
    return np.where(probs > PROB_FLOOR, probs, 0.0)


def _records(circuit_id, config, site_index, site, angles, summary, baseline_qvf):
    """Campaign rows from a block summary, one per (theta, phi) of ``angles``;
    the baseline passes site None and its own qvf."""
    columns = (summary.pst, summary.p_b, summary.contrast, summary.qvf)
    return [
        QvfRecord(
            circuit_id=circuit_id,
            site_index=site_index,
            gate_index=site.gate_index if site else -1,
            qubit=site.qubit if site else -1,
            theta_deg=float(t_deg),
            phi_deg=float(p_deg),
            mode=config.mode,
            shots=config.shots if config.mode == "sampled" else 0,
            seed=config.seed,
            pst=pst,
            p_b=p_b,
            contrast=contrast,
            qvf=qvf,
            baseline_qvf=baseline_qvf,
            improved=qvf < baseline_qvf,
        )
        for (t_deg, p_deg), pst, p_b, contrast, qvf in zip(
            angles, *(c.tolist() for c in columns)
        )
    ]


def _site_worker(args):
    """All grid records for one site; runs in a worker process."""
    circuit, config, mask, circuit_id, site_index, site, degs, faults, mats, baseline_qvf = args
    records = []
    try:
        for start, probs in _site_blocks(circuit, config.noise, site, faults, mats):
            summary = score(_mode_probs(probs, config, site_index, start), mask)
            angles = degs[start:start + probs.shape[1]]
            records += _records(
                circuit_id, config, site_index, site, angles, summary, baseline_qvf
            )
    except SimulationError as exc:
        raise CampaignError(
            f"simulation failed at site {site_index} "
            f"(gate {site.gate_index}, qubit {site.qubit}): {exc}"
        ) from exc
    return records


def _baseline(circuit, config, mask, circuit_id):
    probs = measured_probabilities(circuit, config.noise)[:, None]
    summary = score(_mode_probs(probs, config, -1, 0), mask)
    qvf = float(summary.qvf[0])
    return _records(circuit_id, config, -1, None, [(0, 0)], summary, qvf)[0]


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
    faults = _fault_gates(degs)
    mats = np.array([gate_matrix(g.name, g.params) for g in faults])
    jobs = [
        (circuit, config, mask, circuit_id, idx, site, degs, faults, mats, base.qvf)
        for idx, site in picked
    ]
    if config.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for records in pool.map(_site_worker, jobs):
                yield from records
    else:
        for job in jobs:
            yield from _site_worker(job)
