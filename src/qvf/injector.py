"""Fault-site enumeration, the (theta, phi) grid, and injection campaigns.

A fault is one u(theta, phi, 0) gate inserted immediately after an
existing gate on one of that gate's target qubits.  Sites therefore map
1:1 onto (gate, target-qubit) pairs; a two-qubit gate contributes two
sites.  The measurement boundary is not a site: faults attach to gates
only.

A fault gate is simulated like any other u gate; in particular a noise
model applies its per-gate channels (duration, depolarizing) to it, so
under noise even a (0, 0) fault can score slightly worse than the
fault-free baseline.

A campaign sweeps every site against every grid point, after one
fault-free baseline record (site_index -1).  :func:`campaign_blocks`
scores the baseline as a one-column :class:`SiteBlock` (one array per
score column) and streams one block per site in canonical order
(site-major, grid-minor) no matter how many workers run;
:class:`qvf.records.BlockWriter` writes them all as record rows.  Every
sampled record draws from its own seed sequence derived from (campaign
seed, site, grid point), so reruns and re-schedules are byte-identical.

A site is swept as one block: the state after the site's gate is
computed once and copied into a (2^n, G) block with one column per grid
point, the G fault rotations act on it in one broadcast step, and the
remaining gates run on the whole block (in column chunks of at most
``BLOCK_AMPLITUDES`` entries).  The baseline is site -1 of the same
sweep: the whole program on the initial state, in one column with no
fault.  Under noise the block holds flat density matrices, (4^n, G) in
the layout of :mod:`qvf.simulator`, which alone decides the state kind
from the campaign's noise model.  Every step is compiled once per
campaign, the fault's once per faulted qubit as a (G, d, d) stack that
each chunk slices.  Every column undergoes exactly the floating-point
operations that simulating its faulted circuit alone would, so each
record scores, bit for bit, what
:func:`qvf.simulator.measured_probabilities` gives for that circuit.
"""

import cmath
import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .circuit import Circuit, bitstring_to_index
from .gates import canonical_u_params
from .metrics import score
from .simulator import (
    SimulationError,
    check_state,
    compile_steps,
    draw_counts,
    evolve,
    gate_steps,
    initial_state,
    readout,
)

import numpy as np


@dataclass(frozen=True)
class FaultSite:
    """One injectable position: a gate index and one of its targets."""

    gate_index: int
    qubit: int


#: entries in one state (or flat density) block: a site's grid is swept
#: in column chunks of at most this size (one column at least), so peak
#: memory does not grow with the grid
BLOCK_AMPLITUDES = 1 << 16

#: exact-mode probabilities at or below this count as zero, a loss far below NORM_TOL
PROB_FLOOR = 1e-14

#: a fault counts as improved only when its qvf is more than this below the
#: baseline, so a rounding tie between two equal states never sets the flag
IMPROVED_MARGIN = 1e-12


class CampaignError(RuntimeError):
    """A campaign aborted; the message names the offending site, and the
    grid point when one column of its block failed a check."""


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep settings.

    mode "exact" records the analytic distribution; "sampled" draws
    ``shots`` counts per record.  ``sites`` limits the sweep to a subset of
    site indices (indices keep their meaning from the full enumeration).
    ``jobs`` > 1 fans sites out across processes, at most one per site.
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
        _grid_axes(self.grid_step)  # validates the step
        if not 1 <= self.shots < 2**63:  # numpy draws take an int64 count
            raise ValueError("shots must be in 1 .. 2**63 - 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.sites is not None:
            sites = tuple(int(s) for s in self.sites)
            if not sites:
                raise ValueError("sites is empty: a campaign needs a fault site")
            if len(set(sites)) != len(sites):
                raise ValueError(f"duplicate site indices in {list(sites)}")
            object.__setattr__(self, "sites", sites)


def enumerate_sites(circuit: Circuit):
    """All fault sites in circuit order, one per (gate, target) pair."""
    return [FaultSite(gi, q) for gi, gate in enumerate(circuit.gates) for q in gate.qubits]


def _grid_axes(step):
    """The (theta, phi) axes of the sweep lattice, in degrees."""
    if step < 1 or 360 % step != 0:
        raise ValueError(f"grid step {step} is not a positive divisor of 360")
    return range(0, 181, step), range(0, 360, step)


def grid_degrees(step: int = 15):
    """(theta_deg, phi_deg) integer pairs of the sweep lattice.

    phi runs over {0, step, ..., 360 - step} degrees and theta over
    {0, step, ..., 180}; theta is the outer (slower) axis, so the first
    element is (0, 0).  A 15 degree step gives 13 * 24 = 312 points.
    ``step`` must be a positive divisor of 360.
    """
    thetas, phis = _grid_axes(step)
    return [(t, p) for t in thetas for p in phis]


def grid_matrices(step: int = 15) -> np.ndarray:
    """The (G, 2, 2) canonical u(theta, phi, 0) matrices in :func:`grid_degrees`
    order, bit for bit as a u Gate holds them: :func:`qvf.gates.u_matrix`'s
    scalar calls run once per theta and once per phi, then broadcast."""
    theta_degs, phi_degs = _grid_axes(step)
    lam = 0.0
    halves = [0.5 * canonical_u_params(math.radians(t), 0.0, lam)[0] for t in theta_degs]
    phis = [canonical_u_params(0.0, math.radians(p), lam)[1] for p in phi_degs]
    c = np.array([math.cos(h) for h in halves])
    s = np.array([math.sin(h) for h in halves])
    phase = np.array([cmath.exp(1j * p) for p in phis])  # exp(i*(phi + lam)) too
    mats = np.empty((len(halves), len(phis), 2, 2), dtype=complex)
    mats[..., 0, 0] = c[:, None]
    mats[..., 0, 1] = np.array([-cmath.exp(1j * lam) * v for v in s.tolist()])[:, None]
    mats[..., 1, 0] = phase * s[:, None]
    mats[..., 1, 1] = phase * c[:, None]
    return mats.reshape(-1, 2, 2)


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


#: one site's sweep: in grid order, an array per score column and the improved flags
SiteBlock = namedtuple("SiteBlock", "site_index site pst p_b contrast qvf improved")


def _site_worker(args):
    """The :class:`SiteBlock` of one site; runs in a worker process.  The
    baseline is site -1 with no ``fault``: one column, no fault step, and a
    :class:`SimulationError` of its own escapes unwrapped."""
    circuit, config, mask, program, site_index, site, fault, baseline_qvf = args
    n, noise = circuit.n_qubits, config.noise
    columns = []
    try:
        prefix = evolve(initial_state(n, noise), n, program[:site.gate_index + 1], noise)
        width = 1 if fault is None else len(fault[0])
        chunk = max(1, BLOCK_AMPLITUDES // prefix.size)
        for start in range(0, width, chunk):
            block = np.repeat(prefix[:, None], min(chunk, width - start), axis=1)
            steps = program[site.gate_index + 1:]
            if fault is not None:
                stack, qubits = fault
                steps = [("u", [(stack[start:start + chunk], qubits)])] + steps
            evolve(block, n, steps, noise)
            check_state(block, n, noise)
            probs = readout(block, n, circuit.measured, noise)
            s = score(_mode_probs(probs, config, site_index, start), mask)
            columns.append((s.pst, s.p_b, s.contrast, s.qvf))
    except SimulationError as exc:
        if fault is None:
            raise
        where = f"site {site_index} (gate {site.gate_index}, qubit {site.qubit})"
        if exc.column is not None:
            where += " at theta {}, phi {}".format(
                *grid_degrees(config.grid_step)[start + exc.column])
        raise CampaignError(f"simulation failed at {where}: {exc}") from exc
    pst, p_b, contrast, qvf = map(np.concatenate, zip(*columns))
    return SiteBlock(site_index, site, pst, p_b, contrast, qvf,
                     qvf < baseline_qvf - IMPROVED_MARGIN)


def _pooled(jobs, workers):
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_site_worker, jobs)


def campaign_blocks(circuit: Circuit, config: CampaignConfig = CampaignConfig()):
    """``(baseline, blocks)``: the fault-free site -1 :class:`SiteBlock`
    (one column), scored on the call, and an iterator that sweeps one
    :class:`SiteBlock` per site in site order, over
    ``grid_degrees(config.grid_step)``.  Order and values depend only on the
    circuit and config, never on worker scheduling; at most one worker
    runs per site."""
    mask = _correct_mask(circuit)
    all_sites = enumerate_sites(circuit)
    if not all_sites:
        raise ValueError("circuit has no fault sites (it has no gates)")
    if config.sites is None:
        picked = list(enumerate(all_sites))
    else:
        for s in config.sites:
            if not 0 <= s < len(all_sites):
                raise CampaignError(f"site index {s} out of range")
        picked = [(s, all_sites[s]) for s in config.sites]
    n, noise = circuit.n_qubits, config.noise
    shared = (circuit, config, mask, compile_steps(circuit.gates, n, noise))
    base = _site_worker(shared + (-1, FaultSite(-1, -1), None, -math.inf))  # never improved
    mats = grid_matrices(config.grid_step)
    faults = {q: gate_steps("u", mats, (q,), n, noise)[1][0]  # noiseless, mats itself
              for q in {site.qubit for _, site in picked}}
    jobs = [shared + (idx, site, faults[site.qubit], base.qvf[0]) for idx, site in picked]
    if config.jobs == 1 or len(jobs) == 1:
        return base, map(_site_worker, jobs)
    return base, _pooled(jobs, min(config.jobs, len(jobs)))

