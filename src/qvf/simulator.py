"""Outcome distributions of a circuit: exact or sampled, with or without noise.

Amplitudes are stored in a dense complex vector of length 2^n with
little-endian indexing (bit q of index i = (i >> q) & 1).  Gates are
applied with vectorized index arithmetic: for each gate the basis indices
are split into groups that agree on every non-target bit, and the 2x2 or
4x4 matrix mixes the group members in place.  The same kernels take a
(2^n, G) block of G state columns, since they index axis 0 only; each
column then undergoes exactly the floating-point operations it would as
a lone vector.  States beyond :data:`MAX_QUBITS` are refused with a
:class:`SimulationError` before anything is allocated.

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


#: largest state a simulation may allocate, in qubits of a state vector
#: (2^20 complex entries, 16 MiB); a density matrix holds 4^n entries, so
#: noisy runs stop at MAX_QUBITS // 2
MAX_QUBITS = 20


def check_size(n_qubits: int, dims: int = 1):
    """Refuse a state of 2^(n_qubits * dims) entries beyond the budget.

    ``dims`` is 1 for a state vector and 2 for a density matrix."""
    if n_qubits * dims > MAX_QUBITS:
        raise SimulationError(
            f"{n_qubits} qubits exceed the simulator's limit of "
            f"{MAX_QUBITS // dims} for a {'density matrix' if dims > 1 else 'state vector'}"
        )


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0> as a 2^n amplitude vector, after the size check."""
    check_size(n_qubits)
    state = np.zeros(2 ** n_qubits, dtype=complex)
    state[0] = 1.0
    return state


@lru_cache(maxsize=None)
def _group_indices(n_qubits: int, targets: tuple):
    """Basis indices with all target bits clear, plus per-target strides."""
    idx = np.arange(2 ** n_qubits)
    for q in targets:
        idx = idx[(idx >> q) & 1 == 0]
    return idx, tuple(1 << q for q in targets)


def apply_matrix(state: np.ndarray, n_qubits: int, mat: np.ndarray, qubits) -> np.ndarray:
    """Apply a 2x2 or 4x4 matrix on ``qubits`` in place and return the state.

    ``state`` is a 2^n vector or a (2^n, G) block; ``mat`` may be a
    (G, d, d) stack holding one matrix per block column.  Sub-index bit a
    of the matrix is the value of ``qubits[a]``.
    """
    base, strides = _group_indices(n_qubits, tuple(qubits))
    offs = [0]
    for s in strides:
        offs += [o + s for o in offs]
    amps = [state[base + o] for o in offs]
    for row, o in enumerate(offs):
        acc = mat[..., row, 0] * amps[0]
        for col in range(1, len(offs)):
            acc = acc + mat[..., row, col] * amps[col]
        state[base + o] = acc
    return state


def apply_gate(state: np.ndarray, n_qubits: int, gate) -> np.ndarray:
    """Apply one gate in place and return the state.

    ``state`` may be a (2^n, G) block: every column gets the gate."""
    return apply_matrix(state, n_qubits, gate_matrix(gate.name, gate.params), gate.qubits)


def check_norm(state: np.ndarray):
    """Raise SimulationError unless the state (or every block column) has unit norm."""
    drift = float(np.max(np.abs(np.sum(np.abs(state) ** 2, axis=0) - 1.0)))
    if drift > NORM_TOL:
        raise SimulationError(f"state norm drifted by {drift!r}")


def statevector(circuit: Circuit) -> np.ndarray:
    """Final amplitudes of the circuit applied to |0...0>."""
    state = zero_state(circuit.n_qubits)
    for gate in circuit.gates:
        apply_gate(state, circuit.n_qubits, gate)
    check_norm(state)
    return state


@lru_cache(maxsize=None)
def _marginal_keys(n_qubits: int, measured: tuple) -> np.ndarray:
    """For each basis index, the packed index over the measured qubits."""
    idx = np.arange(2 ** n_qubits)
    keys = np.zeros_like(idx)
    for pos, q in enumerate(measured):
        keys |= ((idx >> q) & 1) << pos
    return keys


def marginalize(probs: np.ndarray, n_qubits: int, measured) -> np.ndarray:
    """Basis probabilities (a 2^n vector or a (2^n, G) block) summed onto the
    measured-qubit indices, each sum taken in basis-index order."""
    out = np.zeros((2 ** len(measured),) + probs.shape[1:])
    np.add.at(out, _marginal_keys(n_qubits, tuple(measured)), probs)
    return out


def measured_probabilities(circuit: Circuit, noise=None) -> np.ndarray:
    """Probability vector over measured-qubit indices (exact, no RNG).

    With ``noise``, every gate is followed by the model's channels and the
    vector passes through its readout flips."""
    if noise is None:
        return marginalize(np.abs(statevector(circuit)) ** 2, circuit.n_qubits, circuit.measured)
    from .noise import apply_readout_flips, evolve_density

    probs = np.clip(np.diag(evolve_density(circuit, noise).entries).real, 0.0, None)
    marginal = marginalize(probs, circuit.n_qubits, circuit.measured)
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
