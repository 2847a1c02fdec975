"""Noise model: config parsing, channel math, and density-matrix evolution."""

import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from support import entries, random_gates, score_entries
from qvf.benchmarks import DEFAULTS
from qvf.circuit import Circuit
from qvf.noise import (
    NoiseConfigError,
    NoiseModel,
    amplitude_damping_kraus,
    apply_readout_flips,
    depolarizing_kraus,
    load_noise_config,
    load_noise_file,
    phase_damping_kraus,
)
from qvf import simulator
from qvf.simulator import (
    SimulationError,
    apply_matrix,
    check_state,
    draw_counts,
    final_state,
    gate_steps,
    measured_probabilities,
)

REPRESENTATIVE = """
[qubits]
t1 = 120
t2 = 100
p01 = 0.015
p10 = 0.03

[gates]
duration = 35
depolarizing = 0.001
cx.duration = 300
cx.depolarizing = 0.01
"""


class TestModelValidation:
    def test_defaults_are_ideal(self):
        ideal = NoiseModel()
        assert load_noise_config("") == ideal
        assert ideal.amplitude_damping_gamma("h", 0) == 0.0
        assert ideal.phase_damping_lambda("h", 0) == 0.0
        assert ideal.readout(3) == (0.0, 0.0)

    def test_damping_parameters_follow_exponential_law(self):
        m = NoiseModel(default_t1=120.0, default_t2=100.0, default_duration=35.0)
        # 35 ns = 0.035 us against T1 = 120 us
        assert m.amplitude_damping_gamma("h", 0) == pytest.approx(
            1.0 - math.exp(-0.035 / 120.0), abs=1e-15
        )
        rate = 1.0 / 100.0 - 0.5 / 120.0
        assert m.phase_damping_lambda("h", 0) == pytest.approx(
            1.0 - math.exp(-0.035 * rate), abs=1e-15
        )

    def test_t2_equal_2t1_means_no_pure_dephasing(self):
        m = NoiseModel(default_t1=50.0, default_t2=100.0, default_duration=35.0)
        assert m.phase_damping_lambda("h", 0) == pytest.approx(0.0, abs=1e-15)

    def test_t2_above_2t1_rejected(self):
        with pytest.raises(NoiseConfigError):
            NoiseModel(default_t1=50.0, default_t2=120.0)
        with pytest.raises(NoiseConfigError):
            NoiseModel(t1={0: 100.0}, t2={0: 250.0})

    def test_range_checks(self):
        with pytest.raises(NoiseConfigError):
            NoiseModel(default_t1=-1.0)
        with pytest.raises(NoiseConfigError):
            NoiseModel(default_p01=1.5)
        with pytest.raises(NoiseConfigError):
            NoiseModel(depolarizing={"cx": -0.1})
        with pytest.raises(NoiseConfigError):
            NoiseModel(default_duration=-5.0)
        with pytest.raises(NoiseConfigError):
            NoiseModel(duration={"cx": float("nan")})

    def test_per_qubit_and_per_gate_overrides(self):
        m = NoiseModel(
            default_t1=100.0,
            default_duration=35.0,
            t1={2: 10.0},
            duration={"cx": 300.0},
            depolarizing={"cx": 0.01},
        )
        assert m.qubit_t1(0) == 100.0
        assert m.qubit_t1(2) == 10.0
        assert m.gate_duration("cx") == 300.0
        assert m.gate_duration("h") == 35.0
        assert m.gate_depolarizing("cx") == 0.01
        assert m.gate_depolarizing("h") == 0.0


class TestConfigParsing:
    def test_representative_document(self):
        m = load_noise_config(REPRESENTATIVE)
        assert m.default_t1 == 120.0
        assert m.default_t2 == 100.0
        assert m.readout(0) == (0.015, 0.03)
        assert m.gate_duration("cx") == 300.0
        assert m.gate_duration("h") == 35.0
        assert m.gate_depolarizing("cx") == 0.01

    def test_inline_comments_and_overrides(self):
        m = load_noise_config(
            "[qubits]\nt1 = 80 ; microseconds\n0.t1 = 40\n"
            "[gates]\nduration = 10 # ns\n"
        )
        assert m.qubit_t1(0) == 40.0
        assert m.qubit_t1(1) == 80.0
        assert m.gate_duration("x") == 10.0

    def test_rejects_unknown_structure(self):
        with pytest.raises(NoiseConfigError):
            load_noise_config("[chips]\nt1 = 3\n")
        with pytest.raises(NoiseConfigError):
            load_noise_config("[qubits]\ncoherence = 3\n")
        with pytest.raises(NoiseConfigError):
            load_noise_config("[qubits]\nt1 = fast\n")
        with pytest.raises(NoiseConfigError):
            load_noise_config("[qubits]\na.t1 = 3\n")
        with pytest.raises(NoiseConfigError):
            load_noise_config("[gates]\nccx.duration = 3\n")
        with pytest.raises(NoiseConfigError):
            load_noise_config("t1 = 3\n")

    def test_load_noise_file(self, tmp_path):
        path = tmp_path / "noise.ini"
        path.write_text(REPRESENTATIVE)
        assert load_noise_file(path) == load_noise_config(REPRESENTATIVE)

    def test_packaged_representative_config_loads(self):
        from importlib import resources

        text = (resources.files("qvf") / "data" / "representative_noise.ini").read_text()
        m = load_noise_config(text)
        assert m.default_t2 <= 2.0 * m.default_t1


class TestChannels:
    @pytest.mark.parametrize("value", [0.0, 1e-6, 0.037, 0.5, 1.0])
    def test_kraus_completeness(self, value):
        for kraus in (
            amplitude_damping_kraus(value),
            phase_damping_kraus(value),
            depolarizing_kraus(value),
        ):
            total = sum(k.conj().T @ k for k in kraus)
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_flat_kernel_matches_oracle(self):
        """Flat-rho steps on random rho: U rho U^H for 1- and 2-qubit U, and
        one channel superoperator against sum_K K rho K^H."""
        strong = NoiseModel(default_t1=1.0, default_t2=1.5, default_duration=300.0,
                            default_depolarizing=0.2)
        rng = np.random.default_rng(41)
        rho_rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(n, 2) + 1))
            qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
            mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            dim = 2**n
            rho = rho_rng.normal(size=(dim, dim)) + 1j * rho_rng.normal(size=(dim, dim))

            _, steps = gate_steps("u", mat, qubits, n, NoiseModel())
            if k == 1:  # one fused U (x) conj(U) step on (row bit, column bit)
                assert [(len(m), fq) for m, fq in steps] == [(4, (qubits[0], qubits[0] + n))]
            else:
                assert len(steps) == 2
            flat = rho.reshape(-1).copy()
            for m, flat_qubits in steps:
                apply_matrix(flat, 2 * n, m, flat_qubits)
            full = oracles.expand(mat, qubits, n)
            assert np.allclose(flat.reshape(dim, dim), full @ rho @ full.conj().T,
                               atol=1e-12)

            q = qubits[0]
            _, steps = gate_steps("h", np.eye(2, dtype=complex), (q,), n, strong)
            assert steps[-1][1] == (q, q + n)
            flat = rho.reshape(-1).copy()
            apply_matrix(flat, 2 * n, *steps[-1])
            want = rho
            for kraus in oracles.kraus_sets(strong, "h", q):
                want = oracles.apply_kraus(want, kraus, q, n)
            assert np.allclose(flat.reshape(dim, dim), want, atol=1e-12)

    def test_fused_noisy_steps_match_oracle(self):
        """Random 1-qubit gates under strong channels, one fused 4x4 step each,
        against the dense Kraus evolution."""
        strong = NoiseModel(default_t1=1.0, default_t2=1.5, default_duration=300.0,
                            default_depolarizing=0.2, duration={"x": 0.0},
                            depolarizing={"x": 0.0})  # x: no channel at all
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            gates = []
            for _ in range(int(rng.integers(1, 7))):
                q = (int(rng.integers(n)),)
                name = str(rng.choice(["h", "x", "s", "u"]))
                params = tuple(rng.uniform(-4, 4, size=3)) if name == "u" else ()
                gates.append((name, q, params))
            flat = np.zeros(4 ** n, dtype=complex)
            flat[0] = 1.0
            for name, q, params in gates:
                _, steps = gate_steps(name, oracles.gate_matrix(name, params), q, n, strong)
                assert len(steps) == 1 and steps[0][1] == (q[0], q[0] + n)
                apply_matrix(flat, 2 * n, *steps[0])
            want = oracles.evolve_density(n, gates, strong)
            assert np.allclose(flat.reshape(2**n, 2**n), want, rtol=0, atol=1e-12)

    def test_fused_stack_is_bitwise_each_lone_matrix(self):
        """A (G, 2, 2) stack fuses, matrix by matrix, to the bits each matrix
        fuses to alone, with and without channels, and a lone matrix's
        compiled terms hold those bits."""
        rng = np.random.default_rng(44)
        stack = rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2))
        stack[0] = [[1, 0], [0, -1]]  # exact zeros and signs

        def bits(z):
            return np.array([z], dtype=complex).view(np.int64).tolist()

        for model in (NoiseModel(), load_noise_config(REPRESENTATIVE)):
            (fused, where), = gate_steps("u", stack, (1,), 3, model)[1]
            assert fused.shape == (7, 4, 4) and where == (1, 4)
            for g, mat in enumerate(stack):
                alone = simulator._fused(mat, model.superoperator("u", 1))
                assert bits(alone) == bits(fused[g])
                (lone, _), = gate_steps("u", mat, (1,), 3, model)[1]
                for r, terms in enumerate(lone):
                    for c, coef in terms or [(r, None)]:
                        want = fused[g, r, c]
                        assert want == 1 if coef is None else bits(coef) == bits(want)


class TestDensityEvolution:
    def test_ideal_model_reproduces_exact_results(self):
        for builder in DEFAULTS.values():
            c = builder()
            noisy = entries(c, NoiseModel())
            exact = entries(c)
            for key in set(noisy) | set(exact):
                assert abs(noisy.get(key, 0.0) - exact.get(key, 0.0)) < 1e-10

    def test_amplitude_damping_half_life(self):
        # gate duration tuned to one T1 half-life
        m = NoiseModel(default_t1=1.0, default_t2=1.0,
                       default_duration=1000.0 * math.log(2))
        c = Circuit(1, [("x", (0,), ())], (0,))
        dist = entries(c, m)
        assert dist["1"] == pytest.approx(0.5, abs=1e-12)

    def test_pure_dephasing_between_hadamards(self):
        # T1 = inf isolates dephasing; off-diagonal shrinks by exp(-d/(2 T2))
        m = NoiseModel(default_t2=1.0, default_duration=1000.0 * math.log(2))
        c = Circuit(1, [("h", (0,), ()), ("h", (0,), ())], (0,))
        dist = entries(c, m)
        assert dist["0"] == pytest.approx((1.0 + 2 ** -0.5) / 2.0, abs=1e-12)

    def test_depolarizing_after_x(self):
        m = NoiseModel(default_depolarizing=0.3)
        c = Circuit(1, [("x", (0,), ())], (0,))
        dist = entries(c, m)
        assert dist["0"] == pytest.approx(0.2, abs=1e-12)
        assert dist["1"] == pytest.approx(0.8, abs=1e-12)

    def test_readout_flips(self):
        m = NoiseModel(default_p10=0.02)
        c = Circuit(1, [("x", (0,), ())], (0,))
        dist = entries(c, m)
        assert dist["1"] == pytest.approx(0.98, abs=1e-12)
        m2 = NoiseModel(default_p01=0.125)
        idle = Circuit(1, [], (0,))
        assert entries(idle, m2)["1"] == pytest.approx(0.125)

    def test_readout_flip_targets_the_right_bit(self):
        m = NoiseModel(p01={1: 0.25})
        c = Circuit(2, [], (0, 1))
        dist = entries(c, m)
        # only the second output position (qubit 1) may flip
        assert dist["01"] == pytest.approx(0.25, abs=1e-12)
        assert dist["00"] == pytest.approx(0.75, abs=1e-12)

    def test_readout_flip_matrix_preserves_mass(self):
        rng = np.random.default_rng(3)
        m = load_noise_config(REPRESENTATIVE)
        probs = rng.dirichlet(np.ones(8))
        out = apply_readout_flips(probs, m, (0, 1, 2))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert (out >= 0).all()

    def test_baseline_vulnerability_grows_with_depolarizing(self):
        for builder in DEFAULTS.values():
            c = builder()
            scores = []
            for p in (0.0, 0.005, 0.02):
                m = NoiseModel(default_depolarizing=p)
                dist = entries(c, m)
                scores.append(score_entries(dist, c.correct_states).qvf)
            assert scores[0] < scores[1] < scores[2], c.name

    def test_random_circuits_stay_physical(self):
        rng = np.random.default_rng(17)
        m = load_noise_config(REPRESENTATIVE)
        for _ in range(10):
            c = Circuit(3, random_gates(rng, 3, 15), (0, 1, 2))
            rho = final_state(c, m)
            check_state(rho, 3, m)
            probs = entries(c, m)
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle_evolution(self):
        models = [
            load_noise_config(REPRESENTATIVE),
            NoiseModel(
                default_t1=60.0, default_t2=50.0, default_duration=35.0,
                default_depolarizing=0.002, t1={0: 20.0, 3: 45.0}, t2={0: 15.0},
                duration={"cx": 300.0, "u": 80.0, "h": 0.0},
                depolarizing={"cz": 0.03, "t": 0.0},
            ),
        ]
        rng = np.random.default_rng(23)
        for trial in range(40):
            n = int(rng.integers(1, 5))
            gates = random_gates(rng, n, int(rng.integers(1, 16)))
            model = models[trial % 2]
            got = final_state(Circuit(n, gates, tuple(range(n))), model).reshape(2**n, 2**n)
            want = oracles.evolve_density(n, gates, model)
            assert np.max(np.abs(got - want)) <= 1e-12, (trial, gates)

    def test_readout_flips_match_explicit_matrix_per_column(self):
        rng = np.random.default_rng(8)
        m = NoiseModel(default_p01=0.015, default_p10=0.03, p01={2: 0.2}, p10={0: 0.0})
        measured = (2, 0, 1)
        flip = np.ones((8, 8))
        for i in range(8):
            for j in range(8):
                for pos, q in enumerate(measured):
                    p01, p10 = m.readout(q)
                    read, true = (i >> pos) & 1, (j >> pos) & 1
                    flip[i, j] *= ((p01 if read else 1 - p01) if true == 0
                                   else (1 - p10 if read else p10))
        block = rng.dirichlet(np.ones(8), size=5).T
        out = apply_readout_flips(block, m, measured)
        assert np.allclose(out, flip @ block, atol=1e-15)
        for j in range(5):
            assert np.array_equal(apply_readout_flips(block[:, j], m, measured), out[:, j])

    def test_block_validation_names_the_first_bad_column(self):
        good = np.diag([1.0, 0.0]).astype(complex).reshape(-1)
        skew = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex).reshape(-1)
        indefinite = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex).reshape(-1)
        check_state(np.column_stack([good, good]), 1, NoiseModel())
        # column 3 fails an earlier check, but column 2 is the first to fail
        with pytest.raises(SimulationError, match="negative eigenvalue") as info:
            check_state(np.column_stack([good, good, indefinite, skew]), 1, NoiseModel())
        assert info.value.column == 2
        with pytest.raises(SimulationError) as info:
            check_state(0.9 * good, 1, NoiseModel())  # a lone matrix: nothing to name
        assert info.value.column is None

    def test_density_validation_catches_bad_states(self):
        good = np.zeros((2, 2), dtype=complex)
        good[0, 0] = 1.0
        check_state(good.reshape(-1), 1, NoiseModel())
        with pytest.raises(SimulationError):
            check_state(0.9 * good.reshape(-1), 1, NoiseModel())
        skew = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(SimulationError):
            check_state(skew.reshape(-1), 1, NoiseModel())
        indefinite = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
        with pytest.raises(SimulationError):
            check_state(indefinite.reshape(-1), 1, NoiseModel())

    def test_an_imaginary_diagonal_is_not_hermitian(self):
        # the triangle the check reads must hold the diagonal; the two
        # imaginary parts cancel in the trace, which stays exactly 1
        rho = np.diag([0.25 + 0j] * 4)
        rho[1, 1] += 1e-6j
        rho[2, 2] -= 1e-6j
        with pytest.raises(SimulationError, match=r"not Hermitian \(off by 2e-06\)"):
            check_state(rho.reshape(-1), 2, NoiseModel())

    def test_hermitian_verdict_matches_the_full_matrix(self):
        rng = np.random.default_rng(26)
        block = density_with_smallest([0.01] * 6, rng, d=16)
        for j, size in ((2, 1e-7), (4, 1e-5), (5, 1e-11)):
            flaw = size * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
            flaw[np.diag_indices(16)] -= np.trace(flaw) / 16
            block[:, j] += flaw.reshape(-1)
        mats = block.reshape(16, 16, -1).transpose(2, 0, 1)
        skew = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)), axis=(1, 2))
        assert skew[5] <= simulator.HERMITIAN_TOL
        for state, j, column in ((block, 2, 2), (block[:, 2], 2, None), (block[:, 4], 4, None)):
            with pytest.raises(SimulationError) as info:
                check_state(state, 4, NoiseModel())
            want = f"density matrix is not Hermitian (off by {skew[j].item()!r})"
            assert (str(info.value), info.value.column) == (want, column)


def density_with_smallest(values, rng, d=4, top=None):
    """(d*d, len(values)) block of flat unit-trace Hermitian matrices in a
    random eigenbasis, column j with smallest eigenvalue values[j], the
    rest of the trace spread evenly, or ``top`` of it on one eigenvalue."""
    cols = []
    for low in values:
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        if top is None:
            eig = np.array([low] + [(1.0 - low) / (d - 1)] * (d - 1))
        else:
            eig = np.array([low] + [(1.0 - low - top) / (d - 2)] * (d - 2) + [top])
        rho = (basis * eig) @ basis.conj().T
        cols.append(((rho + rho.conj().T) / 2).reshape(-1))
    return np.column_stack(cols)


def eigvalsh_verdict(block, floor):
    """(message, column) of the first column whose smallest eigenvalue, by
    eigvalsh over the whole block, is below ``floor``; None if none is."""
    d = int(round(math.sqrt(block.shape[0])))
    smallest = np.linalg.eigvalsh(block.reshape(d, d, -1).transpose(2, 0, 1))[:, 0]
    bad = np.flatnonzero(smallest < floor)
    return None if not len(bad) else (f"negative eigenvalue {smallest[bad[0]].item()!r}", int(bad[0]))


class TestEigenvalueScreen:
    """check_state's Cholesky screen gives eigvalsh's verdicts at the edges."""

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("floor", [-1e-8, 1e-3])
    def test_verdicts_at_the_floor_match_eigvalsh(self, monkeypatch, floor, n):
        """At d = 4, and at d = 256 with half the trace on one eigenvalue,
        where Cholesky's rounding is d^2 times larger."""
        monkeypatch.setattr("qvf.simulator.EIGENVALUE_FLOOR", floor)
        edges = [floor * (1 - 1e-3), floor * (1 + 1e-3), floor - 1e-13, floor + 1e-13, 0.1]
        block = density_with_smallest(edges, np.random.default_rng(51), d=2**n,
                                      top=None if n == 2 else 0.5)
        verdicts = [eigvalsh_verdict(block[:, [j]], floor) for j in range(len(edges))]
        # below the floor fails and above it passes, whichever way floor*(1+-1e-3) lies
        assert [v is None for v in verdicts] == [e >= floor for e in edges]
        picks = [[j] for j in range(len(edges))] + [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [4, 0, 3]]
        for pick in picks:
            sub = np.ascontiguousarray(block[:, pick])
            want = eigvalsh_verdict(sub, floor)
            cases = [(sub, want)]
            if len(pick) == 1:  # a lone matrix: the same message, no column
                cases.append((sub[:, 0], want and (want[0], None)))
            for state, expect in cases:
                if expect is None:
                    check_state(state, n, NoiseModel())
                    continue
                with pytest.raises(SimulationError) as info:
                    check_state(state, n, NoiseModel())
                assert (str(info.value), info.value.column) == expect, pick

    def test_eigvalsh_runs_only_on_a_block_the_screen_cannot_clear(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or real(m))
        rng = np.random.default_rng(52)
        check_state(density_with_smallest([0.0, 1e-9, 0.2], rng), 2, NoiseModel())
        assert calls == []
        # inside the 1e-12 margin, eigvalsh decides, and passes the block
        check_state(density_with_smallest([0.2, -1e-8 + 1e-13], rng), 2, NoiseModel())
        assert calls == [1]


#: the packaged model, and one with per-qubit and per-gate overrides
ORACLE_MODELS = (
    load_noise_config(
        (resources.files("qvf") / "data" / "representative_noise.ini").read_text()),
    NoiseModel(
        default_t1=60.0, default_t2=50.0, default_duration=35.0,
        default_depolarizing=0.002, t1={0: 20.0, 3: 45.0}, t2={0: 15.0},
        duration={"cx": 300.0, "u": 80.0, "h": 0.0},
        depolarizing={"cz": 0.03, "t": 0.0},
    ),
)


@st.composite
def faulted_circuits(draw):
    """(n_qubits, gates, measured): a random_gates circuit on 1-4 qubits
    with one u(theta, phi, 0) fault inserted after one of its gates."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = random_gates(rng, n, draw(st.integers(1, 12)))
    index = draw(st.integers(0, len(gates) - 1))
    qubit = draw(st.sampled_from(gates[index][1]))
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    measured = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    return n, oracles.insert_fault(gates, index, qubit, theta, phi), measured


class TestAgainstOracles:
    """The shared evolve/check/readout path against the dense oracles, which
    share no code with it."""

    @settings(max_examples=100, deadline=None)
    @given(faulted_circuits())
    def test_noiseless_probabilities(self, case):
        n, gates, measured = case
        got = measured_probabilities(Circuit(n, gates, measured))
        want = oracles.exact_distribution(n, gates, measured, tol=-1.0)
        for i, p in enumerate(got):
            assert abs(p - want.get(oracles.bitstring(i, len(measured)), 0.0)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(faulted_circuits())
    def test_final_density_matrix(self, case):
        n, gates, measured = case
        for model in ORACLE_MODELS:
            got = final_state(Circuit(n, gates, measured), model).reshape(2**n, 2**n)
            want = oracles.evolve_density(n, gates, model)
            assert np.max(np.abs(got - want)) <= 1e-12


class TestNoisySampling:
    def test_deterministic_and_consistent(self):
        m = load_noise_config(REPRESENTATIVE)
        c = DEFAULTS["grover"]()
        exact = measured_probabilities(c, m)
        a = draw_counts(exact, 1024, seed=5)
        assert (a == draw_counts(measured_probabilities(c, m), 1024, seed=5)).all()
        assert a.sum() == 1024
        for p, count in zip(exact, a):
            sigma = math.sqrt(p * (1.0 - p) / 1024)
            observed = count / 1024
            assert abs(observed - p) <= 4 * sigma + 1e-9
