"""State-vector engine against closed forms and the dense-matrix oracle."""

import ast
import doctest
import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
import qvf
from qvf.circuit import Circuit
from qvf.noise import NoiseModel
from qvf import simulator
from qvf.simulator import (
    MAX_QUBITS,
    SimulationError,
    draw_counts,
    final_state,
    measured_probabilities,
    readout,
)

from support import entries, random_gates


@pytest.mark.parametrize(
    "name", ["qvf"] + [f"qvf.{m.name}" for m in pkgutil.iter_modules(qvf.__path__)]
)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0


def _resolve(dotted):
    """The object a dotted ``qvf.`` name refers to: the longest importable
    module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_readme_library_names_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    names = sorted(set(re.findall(r"(?<![\w.])qvf(?:\.\w+)+", section)))
    assert "qvf.measured_probabilities" in names
    for dotted in names:
        try:
            _resolve(dotted)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"README names {dotted}, which does not resolve: {exc}")


def test_oracles_share_no_code_with_the_package():
    # the references are only independent if oracles.py imports neither qvf
    # nor the helpers in support.py, which wrap qvf
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    roots = {name.lstrip(".").split(".")[0] for name in imported}
    assert imported and not roots & {"qvf", "support"}, sorted(imported)
    assert not any(name.startswith(".") for name in imported), sorted(imported)


def test_hadamard_splits_evenly():
    dist = entries(Circuit(1, [("h", (0,), ())], (0,)))
    assert math.isclose(dist["0"], 0.5, abs_tol=1e-12)
    assert math.isclose(dist["1"], 0.5, abs_tol=1e-12)


def test_bell_pair():
    c = Circuit(2, [("h", (0,), ()), ("cx", (0, 1), ())], (0, 1))
    dist = entries(c)
    assert set(dist) == {"00", "11"}
    assert math.isclose(dist["00"], 0.5, abs_tol=1e-12)


def test_u_rotation_probabilities():
    c = Circuit(1, [("u", (0,), (math.pi / 4, 0.3, 1.1))], (0,))
    dist = entries(c)
    assert math.isclose(dist["0"], math.cos(math.pi / 8) ** 2, abs_tol=1e-12)
    assert math.isclose(dist["1"], math.sin(math.pi / 8) ** 2, abs_tol=1e-12)


def test_empty_circuit_stays_in_zero():
    assert entries(Circuit(2, [], (0, 1))) == {"00": 1.0}


def test_x_on_middle_qubit_and_marginals():
    c = Circuit(3, [("x", (1,), ())], (0, 1, 2))
    assert entries(c) == {"010": 1.0}
    only_middle = Circuit(3, [("x", (1,), ())], (1,))
    assert entries(only_middle) == {"1": 1.0}


def test_measured_order_permutes_bit_positions():
    c = Circuit(2, [("x", (0,), ())], (0, 1))
    swapped = Circuit(2, [("x", (0,), ())], (1, 0))
    assert entries(c) == {"10": 1.0}
    assert entries(swapped) == {"01": 1.0}


def test_norm_preserved_on_deep_random_circuit():
    rng = np.random.default_rng(11)
    c = Circuit(3, random_gates(rng, 3, 200), (0, 1, 2))
    state = final_state(c)
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
        got = entries(Circuit(n, gates, measured))
        keys = set(expected) | set(got)
        for key in keys:
            assert abs(expected.get(key, 0.0) - got.get(key, 0.0)) < 1e-10, (
                trial,
                key,
            )


def test_sampling_is_seed_deterministic():
    c = Circuit(2, [("h", (0,), ()), ("cx", (0, 1), ())], (0, 1))
    probs = measured_probabilities(c)
    a = draw_counts(probs, 1024, seed=42)
    b = draw_counts(probs, 1024, seed=42)
    assert (a == b).all()
    assert a.sum() == 1024
    other = draw_counts(probs, 1024, seed=43)
    assert (other != a).any()


def test_sample_counts_within_binomial_bounds():
    c = Circuit(1, [("h", (0,), ())], (0,))
    sigma = math.sqrt(1024 * 0.25)
    probs = measured_probabilities(c)
    for seed in range(20):
        counts = draw_counts(probs, 1024, seed=seed)
        assert counts.sum() == 1024
        assert abs(counts[0] - 512) <= 4 * sigma


def test_large_sample_tracks_exact_distribution():
    rng = np.random.default_rng(7)
    c = Circuit(3, random_gates(rng, 3, 30), (0, 1, 2))
    exact = measured_probabilities(c)
    shots = 100_000
    sampled = draw_counts(exact, shots, seed=99) / shots
    for p, observed in zip(exact, sampled):
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(observed - p) <= 5 * sigma + 1e-9


def test_draw_counts_input_validation():
    with pytest.raises(ValueError):
        draw_counts(np.array([1.0]), 0, seed=0)
    with pytest.raises(SimulationError):
        draw_counts(np.array([0.5, 0.4]), 10, seed=0)


def test_oversized_states_are_refused():
    # checked against the qubit count alone, before any allocation
    wide = Circuit(MAX_QUBITS + 1, [("h", (0,), ())], (0,))
    for run in (final_state, measured_probabilities):
        with pytest.raises(SimulationError, match="limit"):
            run(wide)
    half = Circuit(MAX_QUBITS // 2 + 1, [("h", (0,), ())], (0,))
    assert len(measured_probabilities(half)) == 2
    with pytest.raises(SimulationError, match="density matrix"):
        measured_probabilities(half, NoiseModel())


def marginal_by_add_at(probs, n, measured):
    """np.add.at onto the measured-qubit indices, from zero, in basis order."""
    keys = [sum(((i >> q) & 1) << pos for pos, q in enumerate(measured)) for i in range(2**n)]
    out = np.zeros((2 ** len(measured),) + probs.shape[1:])
    np.add.at(out, keys, probs)
    return out


@pytest.mark.parametrize("n, measured, columns", [
    (3, (0, 2), None), (4, (3, 1, 0), None), (2, (), None), (5, (1,), None),
    (12, (5,), None), (3, (2,), 1), (4, (0, 1, 2), 5), (4, (1, 3), 40), (5, (4,), 70),
    (3, (0, 1, 2), 20), (5, (), 200), (10, (3,), 64), (12, (0, 11), 2),
])
def test_readout_sums_bitwise_as_np_add_at(n, measured, columns):
    # vectors and blocks, from one member row per outcome to 2048 of them
    rng = np.random.default_rng(61)
    shape = (2**n,) if columns is None else (2**n, columns)
    # magnitudes spread over 20 decades, so a different summation order shows
    mags = rng.random(shape) * 10.0 ** rng.integers(-20, 1, size=shape)
    amps = np.sqrt(mags) * np.exp(2j * np.pi * rng.random(shape))
    amps[rng.random(shape) < 0.25] = 0.0
    amps[rng.random(shape) < 0.1] = complex(-0.0, -0.0)
    want = marginal_by_add_at(np.abs(amps) ** 2, n, measured)
    got = readout(amps, n, measured)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # a flat rho: the diagonal, with signed zeros and clipped negatives
    diag = mags.copy()
    diag[rng.random(shape) < 0.2] = 0.0
    diag[rng.random(shape) < 0.2] = -0.0
    diag[rng.random(shape) < 0.1] = -1e-17
    rho = np.zeros((4**n,) + shape[1:], dtype=complex)
    rho[np.arange(2**n) * (2**n + 1)] = diag
    want = marginal_by_add_at(np.clip(diag, 0.0, None), n, measured)
    got = readout(rho, n, measured, NoiseModel())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_index_caches_stay_bounded():
    """Sweeping more distinct keys than a simulator cache keeps leaves it
    at its bound."""
    sweeps = {
        simulator._group_indices: [(6, (q,)) for q in range(6)]
        + [(6, (a, b)) for a in range(6) for b in range(6) if a != b],
        simulator._marginal_members: [
            (6, tuple(q for q in range(6) if mask >> q & 1)) for mask in range(64)],
        simulator._diagonal: [(n,) for n in range(16)],
    }
    for cache, keys in sweeps.items():
        bound = cache.cache_info().maxsize
        assert bound is not None and len(keys) > bound
        for key in keys:
            cache(*key)
        assert cache.cache_info().currsize == bound
