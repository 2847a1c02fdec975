"""Outcome distributions of a circuit: exact or sampled, with or without noise.

Amplitudes are stored in a dense complex vector of length 2^n with
little-endian indexing (bit q of index i = (i >> q) & 1).  Gates are
applied with vectorized index arithmetic: for each gate the basis indices
are split into groups that agree on every non-target bit, and the 2x2 or
4x4 matrix mixes the group members in place.

Every distribution comes from :func:`measured_probabilities`, which takes
an optional noise model (density-matrix evolution in :mod:`qvf.noise`);
:func:`draw_counts` is the one seeded multinomial draw.

>>> from .circuit import Circuit
>>> run_exact(Circuit(1, [("h", (0,), ())], (0,))).entries
{'0': 0.4999999999999999, '1': 0.4999999999999999}
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, index_to_bitstring
from .gates import gate_matrix

NORM_TOL = 1e-10

#: probabilities at or below this are dropped from distributions; the loss
#: is far below NORM_TOL even with every state populated
PROB_FLOOR = 1e-14


class SimulationError(RuntimeError):
    """Numerical invariant broken during simulation."""


@dataclass(frozen=True)
class OutcomeDistribution:
    """Map from measured bitstrings to probability or sampled count.

    ``shots`` is None in exact mode (values are probabilities summing to 1)
    and the shot count in sampled mode (values are integer counts summing
    to ``shots``).
    """

    entries: dict
    shots: int = None

    def probabilities(self) -> dict:
        """Entries normalized to probabilities in either mode."""
        if self.shots is None:
            return dict(self.entries)
        return {k: v / self.shots for k, v in self.entries.items()}


@lru_cache(maxsize=None)
def _group_indices(n_qubits: int, targets: tuple):
    """Basis indices with all target bits clear, plus per-target strides."""
    idx = np.arange(2 ** n_qubits)
    for q in targets:
        idx = idx[(idx >> q) & 1 == 0]
    return idx, tuple(1 << q for q in targets)


def apply_gate(state: np.ndarray, n_qubits: int, gate) -> np.ndarray:
    """Apply one gate in place and return the state."""
    mat = gate_matrix(gate.name, gate.params)
    base, strides = _group_indices(n_qubits, gate.qubits)
    if len(strides) == 1:
        s0 = strides[0]
        a0 = state[base]
        a1 = state[base + s0]
        state[base] = mat[0, 0] * a0 + mat[0, 1] * a1
        state[base + s0] = mat[1, 0] * a0 + mat[1, 1] * a1
    else:
        s0, s1 = strides
        offs = (0, s0, s1, s0 + s1)  # sub-index bit a <-> targets[a]
        amps = [state[base + o] for o in offs]
        for row, o in enumerate(offs):
            state[base + o] = (
                mat[row, 0] * amps[0]
                + mat[row, 1] * amps[1]
                + mat[row, 2] * amps[2]
                + mat[row, 3] * amps[3]
            )
    return state


def statevector(circuit: Circuit) -> np.ndarray:
    """Final amplitudes of the circuit applied to |0...0>."""
    state = np.zeros(2 ** circuit.n_qubits, dtype=complex)
    state[0] = 1.0
    for gate in circuit.gates:
        apply_gate(state, circuit.n_qubits, gate)
    norm = float(np.sum(np.abs(state) ** 2))
    if abs(norm - 1.0) > NORM_TOL:
        raise SimulationError(f"state norm drifted to {norm!r}")
    return state


@lru_cache(maxsize=None)
def _marginal_keys(n_qubits: int, measured: tuple) -> np.ndarray:
    """For each basis index, the packed index over the measured qubits."""
    idx = np.arange(2 ** n_qubits)
    keys = np.zeros_like(idx)
    for pos, q in enumerate(measured):
        keys |= ((idx >> q) & 1) << pos
    return keys


def measured_probabilities(circuit: Circuit, noise=None) -> np.ndarray:
    """Probability vector over measured-qubit indices (exact, no RNG).

    With ``noise``, every gate is followed by the model's channels and the
    vector passes through its readout flips."""
    if noise is None:
        probs = np.abs(statevector(circuit)) ** 2
    else:
        from .noise import apply_readout_flips, evolve_density

        probs = np.clip(np.diag(evolve_density(circuit, noise).entries).real, 0.0, None)
    keys = _marginal_keys(circuit.n_qubits, circuit.measured)
    marginal = np.bincount(keys, weights=probs, minlength=2 ** len(circuit.measured))
    if noise is None:
        return marginal
    return apply_readout_flips(marginal, noise, circuit.measured)


def distribution_from_vector(probs: np.ndarray, width: int) -> OutcomeDistribution:
    """Exact-mode distribution from a probability vector over bitstrings."""
    entries = {
        index_to_bitstring(i, width): float(p)
        for i, p in enumerate(probs)
        if p > PROB_FLOOR
    }
    return OutcomeDistribution(entries)


def run_exact(circuit: Circuit, noise=None) -> OutcomeDistribution:
    """Exact output distribution marginalized onto the measured qubits."""
    return distribution_from_vector(
        measured_probabilities(circuit, noise), len(circuit.measured)
    )


def draw_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial shot counts per index of a probability vector.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts,
    including a SeedSequence; equal inputs give equal counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    pvals = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    total = pvals.sum()
    if abs(total - 1.0) > NORM_TOL:
        raise SimulationError(f"probabilities sum to {total!r}")
    return np.random.default_rng(seed).multinomial(shots, pvals / total)


def sample_vector(
    probs: np.ndarray, width: int, shots: int, seed
) -> OutcomeDistribution:
    """Sampled distribution from a probability vector; seed-deterministic."""
    counts = draw_counts(probs, shots, seed)
    entries = {
        index_to_bitstring(i, width): int(c)
        for i, c in enumerate(counts)
        if c > 0
    }
    return OutcomeDistribution(entries, shots=shots)


def sample(circuit: Circuit, shots: int, seed, noise=None) -> OutcomeDistribution:
    """Sampled counts for a circuit; identical inputs give identical counts.

    With ``noise`` given, sampling draws from the noisy exact distribution.
    """
    return sample_vector(
        measured_probabilities(circuit, noise), len(circuit.measured), shots, seed
    )
