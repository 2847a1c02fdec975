"""Brute-force reference for noisy output distributions.

Written from the documented noise model, not from ``qvf.noise``: every
gate and every Kraus operator is lifted to the full 2^n x 2^n space with
``oracles.expand`` (the test suite's entry-by-entry expansion), and
readout flips are applied as one explicit 2^m x 2^m stochastic matrix.
Only plain parameter lookups (T1, T2, duration, depolarizing, readout)
are read from the ``NoiseModel`` the campaign used.
"""

import math

import numpy as np

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _channels(model, gate_name, qubit):
    """Kraus sets after one gate on one target: damping, dephasing, depolarizing."""
    d_us = model.gate_duration(gate_name) * 1e-3
    t1 = model.qubit_t1(qubit)
    t2 = model.qubit_t2(qubit)
    gamma = 1.0 - math.exp(-d_us / t1)
    rate = 0.0 if math.isinf(t2) else max(0.0, 1.0 / t2 - 0.5 / t1)
    lam = 1.0 - math.exp(-d_us * rate)
    p = model.gate_depolarizing(gate_name)
    return (
        (np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
         np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)),
        (np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex),
         np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)),
        tuple(w * m for w, m in ((math.sqrt(1 - p), _I), (math.sqrt(p / 3), _X),
                                 (math.sqrt(p / 3), _Y), (math.sqrt(p / 3), _Z))),
    )


def _readout_matrix(model, measured):
    """M[i, j] = P(read outcome i | true outcome j), bit p = measured[p]."""
    m = len(measured)
    out = np.ones((2 ** m, 2 ** m))
    for i in range(2 ** m):
        for j in range(2 ** m):
            for pos, q in enumerate(measured):
                p01, p10 = model.readout(q)
                read, true = (i >> pos) & 1, (j >> pos) & 1
                if true == 0:
                    out[i, j] *= p01 if read else 1.0 - p01
                else:
                    out[i, j] *= 1.0 - p10 if read else p10
    return out


def noisy_distribution(oracles, n_qubits, gates, measured, model):
    """Bitstring -> probability after gate noise and readout flips."""
    dim = 2 ** n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for name, qubits, params in gates:
        full = oracles.expand(oracles.gate_matrix(name, params), qubits, n_qubits)
        rho = full @ rho @ full.conj().T
        for q in qubits:
            for kraus in _channels(model, name, q):
                lifted = [oracles.expand(k, (q,), n_qubits) for k in kraus]
                rho = sum(k @ rho @ k.conj().T for k in lifted)
    diag = np.clip(np.diag(rho).real, 0.0, None)
    marginal = np.zeros(2 ** len(measured))
    for i, p in enumerate(diag):
        key = 0
        for pos, q in enumerate(measured):
            key |= ((i >> q) & 1) << pos
        marginal[key] += p
    probs = _readout_matrix(model, measured) @ marginal
    return {oracles.bitstring(i, len(measured)): float(p) for i, p in enumerate(probs)}
