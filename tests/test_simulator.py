"""State-vector engine against closed forms and the dense-matrix oracle."""

import ast
import doctest
import importlib
import math
import pkgutil
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import oracles
import qvf
from qvf.benchmarks import DEFAULTS
from qvf.circuit import Circuit
from qvf.gates import CX, SIGNATURES, X
from qvf.noise import NoiseModel, load_noise_config
from qvf import simulator
from qvf.simulator import (
    MAX_QUBITS,
    SimulationError,
    apply_matrix,
    compile_steps,
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


def _readme_library_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_names_resolve():
    section = _readme_library_section()
    names = sorted(set(re.findall(r"(?<![\w.])qvf(?:\.\w+)+", section)))
    assert "qvf.measured_probabilities" in names
    for dotted in names:
        try:
            _resolve(dotted)
        except (ImportError, AttributeError) as exc:
            pytest.fail(f"README names {dotted}, which does not resolve: {exc}")


def test_readme_library_block_runs(tmp_path, monkeypatch):
    code = _readme_library_section().split("```python\n", 1)[1].split("```", 1)[0]
    noise = resources.files("qvf") / "data" / "representative_noise.ini"
    (tmp_path / "noise.ini").write_text(noise.read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["faults"]) == len(qvf.enumerate_sites(namespace["circ"])) * 312


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
    with pytest.raises(SimulationError, match=r"^probabilities sum to 0\.9$"):
        draw_counts(np.array([0.5, 0.4]), 10, seed=0)
    # a NaN total used to pass the check and fail inside numpy's draw
    with pytest.raises(SimulationError, match="probabilities sum to nan"):
        draw_counts(np.array([np.nan, 1.0]), 10, seed=0)


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


def representative_noise():
    text = (resources.files("qvf") / "data" / "representative_noise.ini").read_text()
    return load_noise_config(text)


def is_move(step):
    """A compiled step only moves amplitudes: every row has no terms or one
    unit term."""
    return all(not terms or (len(terms) == 1 and terms[0][1] is None) for terms in step)


def test_only_permuting_steps_become_moves():
    # cx's row-bit and column-bit steps, and a noiseless x, only permute;
    # a fused step with channels, a superoperator or any other gate does not
    noisy, ideal = representative_noise(), NoiseModel()
    for name, (width, n_params) in SIGNATURES.items():
        gate = (name, tuple(range(width)), (0.3, 1.1, 0.4)[:n_params])
        for noise, moves in ((None, {"x": [True], "cx": [True]}),
                             (ideal, {"x": [True], "cx": [True, True]}),
                             (noisy, {"cx": [True, True, False, False]})):
            (_, steps), = compile_steps(Circuit(2, [gate], (0,)).gates, 2, noise)
            want = moves.get(name, [False] * len(steps))
            assert [is_move(step) for step, _ in steps] == want, (name, noise)


@pytest.mark.parametrize("mat, qubits", [
    (X, (2,)), (CX, (0, 3)), (CX, (3, 1)), (np.kron(X, X.conj()), (1, 2)),
    (np.eye(4)[[2, 0, 3, 1]], (2, 0)), (np.eye(8)[[5, 1, 7, 0, 2, 6, 3, 4]], (3, 0, 1)),
])
def test_move_equals_the_dense_step_bit_for_bit(mat, qubits):
    mat = np.asarray(mat, dtype=complex)
    _, [(step, _)] = simulator.gate_steps("m", mat, qubits, 4)
    assert is_move(step)
    assert_compiled_equals_dense(step, mat, qubits)


def assert_compiled_equals_dense(step, mat, qubits):
    # with no zero amplitude there is no signed zero, so every bit must agree
    rng = np.random.default_rng(19)
    for shape in ((16,), (16, 7)):
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense = apply_matrix(state.copy(), 4, mat, qubits)
        compiled = apply_matrix(state.copy(), 4, step, qubits)
        assert compiled.tobytes() == dense.tobytes()


#: the qubits a step of each size acts on in a 4-qubit test state, out of order
TEST_QUBITS = {2: (2,), 4: (3, 1)}


def compiled_and_dense_steps(monkeypatch, bench, noise):
    """Every step of a benchmark circuit, compiled and as the dense matrix
    it was compiled from."""
    circuit = DEFAULTS[bench]()
    compiled = compile_steps(circuit.gates, circuit.n_qubits, noise)
    with monkeypatch.context() as m:
        m.setattr(simulator, "_terms", lambda mat: mat)
        dense = compile_steps(circuit.gates, circuit.n_qubits, noise)
    return [(step, mat) for (_, steps), (_, mats) in zip(compiled, dense)
            for (step, _), (mat, _) in zip(steps, mats)]


@pytest.mark.parametrize("noise", ["none", "ideal", "representative"])
@pytest.mark.parametrize("bench", sorted(DEFAULTS))
def test_compiled_step_equals_the_dense_step_bit_for_bit(monkeypatch, bench, noise):
    noise = {"none": None, "ideal": NoiseModel(),
             "representative": representative_noise()}[noise]
    pairs = compiled_and_dense_steps(monkeypatch, bench, noise)
    assert any(not is_move(step) for step, _ in pairs)
    for step, mat in pairs:
        assert isinstance(step, tuple) and len(step) == len(mat)
        assert_compiled_equals_dense(step, mat, TEST_QUBITS[len(mat)])


def random_step(rng, d):
    """A d x d step whose entries are each 0, 1 or a random complex number,
    so a compiled row may skip terms, start with a move or add products."""
    pick = rng.integers(3, size=(d, d))
    value = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return np.where(pick == 2, value, pick).astype(complex)


def plain_rows(state, step, qubits):
    """A step applied with fresh arrays only: each row is
    ``acc = acc + coef * amps[col]`` over its terms in column order."""
    index = simulator._group_indices(4, tuple(qubits))
    if isinstance(step, np.ndarray):
        step = [[(c, step[:, r, c]) for c in range(len(index))] for r in range(len(index))]
    amps, out = [state[ix] for ix in index], state.copy()
    for ix, terms in zip(index, step):
        acc = None
        for col, coef in terms:
            term = amps[col] if coef is None else coef * amps[col]
            acc = term if acc is None else acc + term
        if acc is not None:
            out[ix] = acc
    return out


@pytest.mark.parametrize("d", [2, 4])
def test_in_place_rows_never_write_into_a_gathered_column(d):
    # a row that starts with a move holds the gathered column itself, which
    # later rows read too: summing into it in place would change their terms
    rng = np.random.default_rng(26)
    qubits = TEST_QUBITS[d]
    mats = [random_step(rng, d) for _ in range(60)]
    shared = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    shared[0, 0] = 1.0  # row 0 starts with a move, and every row reads column 0
    mats.append(shared)
    steps = [simulator.gate_steps("m", mat, qubits, 4)[1][0][0] for mat in mats]
    assert any(len(terms) > 1 and terms[0][1] is None for step in steps for terms in step)
    vector = rng.normal(size=16) + 1j * rng.normal(size=16)
    block = rng.normal(size=(16, 7)) + 1j * rng.normal(size=(16, 7))
    for step, mat in zip(steps, mats):
        assert_compiled_equals_dense(step, mat, qubits)
        for state in (vector, block):  # the in-place sums keep every bit
            got = apply_matrix(state.copy(), 4, step, qubits)
            assert got.tobytes() == plain_rows(state, step, qubits).tobytes()
    # a (G, d, d) stack gives each block column what its lone step gives it
    stack = np.stack(mats[-7:])
    stacked = apply_matrix(block.copy(), 4, stack, qubits)
    assert stacked.tobytes() == plain_rows(block, stack, qubits).tobytes()
    for g, step in enumerate(steps[-7:]):
        lone = apply_matrix(block[:, g].copy(), 4, step, qubits)
        assert stacked[:, g].tobytes() == lone.tobytes()


@pytest.mark.parametrize("bench", sorted(DEFAULTS))
def test_compiled_noisy_step_keeps_an_inf(monkeypatch, bench):
    # a skipped zero term never reads a column, so a non-finite amplitude
    # must still reach some row: the state checks then refuse the block.
    # Column j of the block holds its one inf at entry j
    rng = np.random.default_rng(25)
    for step, mat in compiled_and_dense_steps(monkeypatch, bench, representative_noise()):
        block = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        block[np.arange(16), np.arange(16)] = np.inf
        with np.errstate(invalid="ignore"):
            apply_matrix(block, 4, step, TEST_QUBITS[len(mat)])
        assert not np.isfinite(block).all(axis=0).any()


@pytest.mark.parametrize("bench", sorted(DEFAULTS))
def test_readout_ignores_the_sign_of_zeros(bench):
    # a move can leave -0.0 where the dense step leaves 0.0; the readout of
    # an amplitude vector squares it away, and a rho's sums start from +0.0
    circuit = DEFAULTS[bench]()

    def flip_zero_signs(state):
        out = state.copy()
        for part in (out.real, out.imag):
            part[part == 0.0] *= -1.0
        assert (np.signbit(out.real) != np.signbit(state.real)).any()
        return out

    n, measured = circuit.n_qubits, circuit.measured
    for state, noise in ((final_state(circuit), None),
                         (final_state(circuit, NoiseModel()), representative_noise())):
        block = np.stack([state, flip_zero_signs(state)], axis=1)
        probs = readout(block, n, measured, noise)
        assert probs[:, 0].tobytes() == probs[:, 1].tobytes()
        assert readout(block[:, 1], n, measured, noise).tobytes() == probs[:, 0].tobytes()
