"""State-vector engine against closed forms and the dense-matrix oracle."""

import doctest
import math

import numpy as np
import pytest

import oracles
import qvf.simulator
from qvf.circuit import Circuit
from qvf.noise import NoiseModel
from qvf.simulator import (
    MAX_QUBITS,
    OutcomeDistribution,
    SimulationError,
    measured_probabilities,
    run_exact,
    sample,
    sample_vector,
    statevector,
)

from support import random_gates


def test_module_doctests():
    failures, _ = doctest.testmod(qvf.simulator)
    assert failures == 0


def test_hadamard_splits_evenly():
    dist = run_exact(Circuit(1, [("h", (0,), ())], (0,)))
    assert dist.shots is None
    assert math.isclose(dist.entries["0"], 0.5, abs_tol=1e-12)
    assert math.isclose(dist.entries["1"], 0.5, abs_tol=1e-12)


def test_bell_pair():
    c = Circuit(2, [("h", (0,), ()), ("cx", (0, 1), ())], (0, 1))
    dist = run_exact(c)
    assert set(dist.entries) == {"00", "11"}
    assert math.isclose(dist.entries["00"], 0.5, abs_tol=1e-12)


def test_u_rotation_probabilities():
    c = Circuit(1, [("u", (0,), (math.pi / 4, 0.3, 1.1))], (0,))
    dist = run_exact(c)
    assert math.isclose(dist.entries["0"], math.cos(math.pi / 8) ** 2, abs_tol=1e-12)
    assert math.isclose(dist.entries["1"], math.sin(math.pi / 8) ** 2, abs_tol=1e-12)


def test_empty_circuit_stays_in_zero():
    dist = run_exact(Circuit(2, [], (0, 1)))
    assert dist.entries == {"00": 1.0}


def test_x_on_middle_qubit_and_marginals():
    c = Circuit(3, [("x", (1,), ())], (0, 1, 2))
    assert run_exact(c).entries == {"010": 1.0}
    only_middle = Circuit(3, [("x", (1,), ())], (1,))
    assert run_exact(only_middle).entries == {"1": 1.0}


def test_measured_order_permutes_bit_positions():
    c = Circuit(2, [("x", (0,), ())], (0, 1))
    swapped = Circuit(2, [("x", (0,), ())], (1, 0))
    assert run_exact(c).entries == {"10": 1.0}
    assert run_exact(swapped).entries == {"01": 1.0}


def test_norm_preserved_on_deep_random_circuit():
    rng = np.random.default_rng(11)
    c = Circuit(3, random_gates(rng, 3, 200), (0, 1, 2))
    state = statevector(c)
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-9


def test_matches_dense_matrix_oracle():
    # independent construction: full 2^n x 2^n operators, per-entry loops
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(1, 4))
        gates = random_gates(rng, n, int(rng.integers(1, 12)))
        k = int(rng.integers(1, n + 1))
        measured = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        expected = oracles.exact_distribution(n, gates, measured)
        got = run_exact(Circuit(n, gates, measured)).entries
        keys = set(expected) | set(got)
        for key in keys:
            assert abs(expected.get(key, 0.0) - got.get(key, 0.0)) < 1e-10, (
                trial,
                key,
            )


def test_sampling_is_seed_deterministic():
    c = Circuit(2, [("h", (0,), ()), ("cx", (0, 1), ())], (0, 1))
    a = sample(c, 1024, seed=42)
    b = sample(c, 1024, seed=42)
    assert a.entries == b.entries
    assert a.shots == 1024
    other = sample(c, 1024, seed=43)
    assert other.entries != a.entries


def test_sample_counts_within_binomial_bounds():
    c = Circuit(1, [("h", (0,), ())], (0,))
    sigma = math.sqrt(1024 * 0.25)
    for seed in range(20):
        counts = sample(c, 1024, seed=seed).entries
        assert sum(counts.values()) == 1024
        assert abs(counts.get("0", 0) - 512) <= 4 * sigma


def test_large_sample_tracks_exact_distribution():
    rng = np.random.default_rng(7)
    c = Circuit(3, random_gates(rng, 3, 30), (0, 1, 2))
    exact = run_exact(c).probabilities()
    shots = 100_000
    sampled = sample(c, shots, seed=99).probabilities()
    for key, p in exact.items():
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(sampled.get(key, 0.0) - p) <= 5 * sigma + 1e-9


def test_sample_vector_input_validation():
    with pytest.raises(ValueError):
        sample_vector(np.array([1.0]), 1, 0, seed=0)
    with pytest.raises(SimulationError):
        sample_vector(np.array([0.5, 0.4]), 1, 10, seed=0)


def test_probabilities_normalizes_counts():
    dist = OutcomeDistribution({"0": 768, "1": 256}, shots=1024)
    probs = dist.probabilities()
    assert probs == {"0": 0.75, "1": 0.25}


def test_oversized_states_are_refused():
    # checked against the qubit count alone, before any allocation
    wide = Circuit(MAX_QUBITS + 1, [("h", (0,), ())], (0,))
    for run in (statevector, measured_probabilities):
        with pytest.raises(SimulationError, match="limit"):
            run(wide)
    half = Circuit(MAX_QUBITS // 2 + 1, [("h", (0,), ())], (0,))
    assert len(measured_probabilities(half)) == 2
    with pytest.raises(SimulationError, match="density matrix"):
        measured_probabilities(half, NoiseModel())
