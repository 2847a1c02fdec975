"""Gate-matrix construction and parameter canonicalization."""

import cmath
import math

import numpy as np
import pytest

from qvf.gates import SIGNATURES, canonical_u_params, gate_matrix, u_matrix

import oracles


def test_all_fixed_gates_unitary():
    for name, (arity, n_params) in SIGNATURES.items():
        if n_params:
            continue
        m = gate_matrix(name)
        assert m.shape == (2 ** arity,) * 2
        err = np.max(np.abs(m.conj().T @ m - np.eye(2 ** arity)))
        assert err < 1e-12, name


def test_u_unitary_on_random_parameters():
    rng = np.random.default_rng(11)
    for _ in range(200):
        theta, phi, lam = rng.uniform(-8, 8, size=3)
        m = u_matrix(theta, phi, lam)
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12
        assert np.all(np.isfinite(m.view(float)))


def test_u_special_points():
    assert np.allclose(u_matrix(math.pi, 0, math.pi), gate_matrix("x"), atol=1e-15)
    assert np.allclose(u_matrix(0, 0, 0), np.eye(2), atol=1e-15)
    h = math.sqrt(0.5) * np.array([[1, 1], [1, -1]])
    assert np.allclose(u_matrix(math.pi / 2, 0, math.pi), h, atol=1e-15)


def test_u_matches_independent_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta, phi, lam = rng.uniform(-7, 7, size=3)
        assert np.allclose(
            u_matrix(theta, phi, lam),
            oracles.u_matrix(theta, phi, lam),
            atol=1e-14,
        )


def scalar_u_formula(theta, phi, lam):
    """u(theta, phi, lam) as one Python expression per entry."""
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -cmath.exp(1j * lam) * s],
                     [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]], dtype=complex)


def test_u_scalar_call_equals_the_written_out_formula():
    rng = np.random.default_rng(37)
    params = [*rng.uniform(-8, 8, size=(200, 3)), (0.0, 0.0, 0.0), (math.pi, 0.0, 0.0)]
    for theta, phi, lam in params:
        m = u_matrix(theta, phi, lam)
        assert m.shape == (2, 2) and m.dtype == complex
        assert (m == scalar_u_formula(theta, phi, lam)).all(), (theta, phi, lam)


def test_u_axes_entries_have_the_bits_of_scalar_calls():
    rng = np.random.default_rng(41)
    thetas, phis = rng.uniform(-8, 8, size=7), rng.uniform(-8, 8, size=9)
    cases = [(thetas, phis, lam) for lam in (0.0, *rng.uniform(-8, 8, size=3))]
    cases.append(([0.0, math.pi], [0.0], 0.0))
    for thetas, phis, lam in cases:
        stack = u_matrix(thetas, phis, lam)
        assert stack.shape == (len(thetas), len(phis), 2, 2)
        for i, theta in enumerate(thetas):
            for j, phi in enumerate(phis):
                assert stack[i, j].tobytes() == u_matrix(theta, phi, lam).tobytes()


def test_u_equivalences_up_to_global_phase():
    # u(pi,0,pi) is X exactly; u(pi, pi/2, pi/2) is Y up to a phase
    x = u_matrix(math.pi, 0, math.pi)
    assert np.allclose(x, gate_matrix("x"), atol=1e-15)
    y = u_matrix(math.pi, math.pi / 2, math.pi / 2)
    ref = gate_matrix("y")
    mask = np.abs(ref) > 0.5
    ratios = y[mask] / ref[mask]
    assert np.allclose(ratios, ratios[0], atol=1e-12)
    assert abs(abs(ratios[0]) - 1.0) < 1e-12


class TestCanonicalization:
    def test_identity_on_canonical_input(self):
        t, p, l = canonical_u_params(1.0, 2.0, 3.0)
        assert (t, p, l) == (1.0, 2.0, 3.0)

    def test_ranges(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            theta, phi, lam = rng.uniform(-12, 12, size=3)
            t, p, l = canonical_u_params(theta, phi, lam)
            assert 0.0 <= t <= math.pi
            assert 0.0 <= p < 2 * math.pi
            assert 0.0 <= l < 2 * math.pi

    def test_same_operation_up_to_global_phase(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            theta, phi, lam = rng.uniform(-12, 12, size=3)
            a = u_matrix(theta, phi, lam)
            b = u_matrix(*canonical_u_params(theta, phi, lam))
            # project out the global phase via the largest entry
            k = np.unravel_index(np.argmax(np.abs(a)), a.shape)
            assert abs(a[k]) > 1e-8
            assert np.allclose(a / a[k], b / b[k], atol=1e-10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_u_params(math.nan, 0, 0)
        with pytest.raises(ValueError):
            canonical_u_params(0, math.inf, 0)


def test_unknown_gate_rejected():
    with pytest.raises(ValueError):
        gate_matrix("swap")
    with pytest.raises(ValueError):
        gate_matrix("u", (1.0,))
