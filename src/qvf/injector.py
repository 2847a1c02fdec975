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
sampled record draws exactly what ``default_rng(SeedSequence([seed,
site_index + 1, grid_index]))`` would, so reruns and re-schedules are
byte-identical; the generator states of a column block are derived from
those seeds once per block, in numpy, and one reused generator draws.

A site is swept as one block: the fault-free state after the site's
gate is copied into a (2^n, G) block with one column per grid point, the
G fault rotations act on it in one broadcast step, and the
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

Every site at or after a gate starts from the same fault-free prefix
state.  A serial sweep keeps the last prefix it evolved and evolves a
copy of it on to the next site's gate, so it runs every prefix gate once;
a site before the kept state (a descending ``sites``) starts again from
|0...0>.  A pooled site keeps nothing and evolves its prefix from
|0...0>.  Evolving on applies the very steps a fresh run would, in the
same order, and the kept state goes with the serial sweep's iterator.
"""

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .circuit import Circuit, bitstring_to_index
from .gates import canonical_u_params, u_matrix
from .metrics import score
from .simulator import (
    NORM_TOL,
    SimulationError,
    check_state,
    compile_steps,
    evolve,
    gate_steps,
    initial_state,
    readout,
    require,
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
BLOCK_AMPLITUDES = 1 << 15

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    order, bit for bit as a u Gate holds them: one axes call of
    :func:`qvf.gates.u_matrix` on the canonical theta and phi axes."""
    theta_degs, phi_degs = _grid_axes(step)
    thetas = [canonical_u_params(math.radians(t), 0.0, 0.0)[0] for t in theta_degs]
    phis = [canonical_u_params(0.0, math.radians(p), 0.0)[1] for p in phi_degs]
    return u_matrix(thetas, phis, 0.0).reshape(-1, 2, 2)


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


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 seeding constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _int_words(value):
    """``value`` as SeedSequence reads an int: little-endian uint32 words,
    0 as one [0] word."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hasher(const, mult):
    """SeedSequence's hashmix on uint32 arrays, with its running hash
    constant (which never depends on the data)."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _seed_words(seed, site_index, start, count):
    """A (count, 4) uint64 array whose row j is
    ``SeedSequence([seed, site_index + 1, start + j]).generate_state(4,
    np.uint64)``: SeedSequence's entropy mixing and output hash, run on all
    count records at once in uint32 arrays."""
    fixed = _int_words(seed) + _int_words(site_index + 1)
    # a grid index is below 181 * 360, so always one word
    entropy = [np.full(count, w, np.uint32) for w in fixed]
    entropy.append(np.arange(start, start + count, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(count, np.uint32))
            for i in range(4)]

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return words.astype("<u4").view("<u8")  # numpy's word order on any host


def _mode_probs(probs, config, site_index, start):
    """Apply the campaign mode to a block of exact probabilities whose
    columns are grid points ``start``, ``start + 1``, ... of a site: shot
    frequencies when sampled, else the entries above PROB_FLOOR.  Column j
    draws exactly what ``draw_counts(probs[:, j], shots,
    SeedSequence([seed, site_index + 1, start + j]))`` would, from one
    reused generator set to each record's derived state."""
    if config.mode == "sampled":
        # each column summed as one contiguous row, in the order a 1-D sum uses
        pvals = np.ascontiguousarray(np.clip(probs.T, 0.0, None))
        totals = pvals.sum(axis=1)
        require((np.abs(totals - 1.0) <= NORM_TOL, "probabilities sum to {!r}", totals))
        pvals /= totals[:, None]
        words = _seed_words(config.seed, site_index, start, len(pvals)).tolist()
        bits = np.random.PCG64(0)  # each draw below sets its own state
        draw = np.random.Generator(bits).multinomial
        counts = np.empty(probs.shape, dtype=np.int64)
        for j, (w0, w1, w2, w3) in enumerate(words):
            # PCG64's seeding: inc from words 2-3, then two LCG steps from words 0-1
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            state = (((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            counts[:, j] = draw(config.shots, pvals[j])
        return counts / config.shots
    return np.where(probs > PROB_FLOOR, probs, 0.0)


#: one site's sweep: in grid order, an array per score column and the improved flags
SiteBlock = namedtuple("SiteBlock", "site_index site pst p_b contrast qvf improved")


def _site_worker(args, kept=None):
    """The :class:`SiteBlock` of one site; runs in a worker process.  The
    baseline is site -1 with no ``fault``: one column, no fault step, and a
    :class:`SimulationError` of its own escapes unwrapped.  ``kept``, a
    serial sweep's one-item list, holds its last prefix as (gates applied,
    state): a site at or after it evolves a copy on, and keeps the result."""
    circuit, config, mask, program, site_index, site, fault, baseline_qvf = args
    n, noise, stop = circuit.n_qubits, config.noise, site.gate_index + 1
    columns = []
    try:
        done, state = kept[0] if kept and kept[0][0] <= stop else (0, None)
        state = initial_state(n, noise) if state is None else state.copy()
        prefix = evolve(state, n, program[done:stop], noise)
        if kept is not None:
            kept[0] = (stop, prefix)  # never changed in place from here on
        width = 1 if fault is None else len(fault[0])
        chunk = max(1, BLOCK_AMPLITUDES // prefix.size)
        for start in range(0, width, chunk):
            block = np.repeat(prefix[:, None], min(chunk, width - start), axis=1)
            steps = program[stop:]
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


def _sweep(jobs, workers):
    """The blocks of ``jobs``: in this process, each prefix evolved on from
    the last, or from a pool of ``workers``, each from |0...0>."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_site_worker, jobs)
    else:
        kept = [(0, None)]
        yield from (_site_worker(job, kept) for job in jobs)


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
                raise ValueError(f"site index {s} out of range")
        picked = [(s, all_sites[s]) for s in config.sites]
    n, noise = circuit.n_qubits, config.noise
    shared = (circuit, config, mask, compile_steps(circuit.gates, n, noise))
    base = _site_worker(shared + (-1, FaultSite(-1, -1), None, -math.inf))  # never improved
    mats = grid_matrices(config.grid_step)
    faults = {q: gate_steps("u", mats, (q,), n, noise)[1][0]  # noiseless, mats itself
              for q in {site.qubit for _, site in picked}}
    jobs = [shared + (idx, site, faults[site.qubit], base.qvf[0]) for idx, site in picked]
    return base, _sweep(jobs, min(config.jobs, len(jobs)))

