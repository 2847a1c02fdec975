"""Benchmark circuits: site counts, metadata, and exact outputs."""

import math

import pytest

import oracles
from support import entries
from qvf.benchmarks import (
    DEFAULTS,
    build_bernstein_vazirani,
    build_deutsch_jozsa,
    build_grover,
)
from qvf.injector import enumerate_sites


def oracle_dist(circuit):
    gates = [(g.name, g.qubits, g.params) for g in circuit.gates]
    return oracles.exact_distribution(circuit.n_qubits, gates, circuit.measured)


def assert_deterministic_output(circuit, expected):
    dist = oracle_dist(circuit)
    assert math.isclose(dist[expected], 1.0, abs_tol=1e-12)
    assert all(p < 1e-12 for k, p in dist.items() if k != expected)
    package = entries(circuit)
    assert math.isclose(package[expected], 1.0, abs_tol=1e-10)


class TestBernsteinVazirani:
    def test_default_shape(self):
        c = build_bernstein_vazirani()
        assert c.name == "bv-011"
        assert c.n_qubits == 4
        assert c.measured == (0, 1, 2)
        assert len(c.gates) == 11
        assert len(enumerate_sites(c)) == 13  # 9 + 2 per secret 1-bit

    def test_secret_is_recovered(self):
        for secret in ("011", "000", "111", "101"):
            c = build_bernstein_vazirani(secret)
            assert c.correct_states == frozenset({secret})
            assert_deterministic_output(c, secret)

    def test_site_count_tracks_secret_weight(self):
        assert len(enumerate_sites(build_bernstein_vazirani("000"))) == 9
        assert len(enumerate_sites(build_bernstein_vazirani("111"))) == 15

    def test_bad_secret(self):
        with pytest.raises(ValueError):
            build_bernstein_vazirani("01")
        with pytest.raises(ValueError):
            build_bernstein_vazirani("0a1")


class TestDeutschJozsa:
    def test_default_shape(self):
        c = build_deutsch_jozsa()
        assert c.name == "dj-balanced-111"
        assert len(enumerate_sites(c)) == 18
        assert c.correct_states == frozenset(
            format(v, "03b") for v in range(1, 8)
        )

    def test_balanced_lands_on_mask(self):
        assert_deterministic_output(build_deutsch_jozsa(), "111")
        assert_deterministic_output(build_deutsch_jozsa(mask="101"), "101")

    def test_constant_oracles_land_on_zero(self):
        for bit in (0, 1):
            c = build_deutsch_jozsa("constant", bit=bit)
            assert c.correct_states == frozenset({"000"})
            assert_deterministic_output(c, "000")

    def test_errors(self):
        with pytest.raises(ValueError):
            build_deutsch_jozsa("periodic")
        with pytest.raises(ValueError):
            build_deutsch_jozsa(mask="000")
        with pytest.raises(ValueError):
            build_deutsch_jozsa("constant", bit=2)


class TestGrover:
    def test_default_shape(self):
        c = build_grover()
        assert c.name == "grover-11"
        assert c.n_qubits == 2
        assert len(c.gates) == 16
        assert len(enumerate_sites(c)) == 18

    def test_one_iteration_is_exact_for_each_mark(self):
        for marked in ("00", "01", "10", "11"):
            c = build_grover(marked)
            assert c.correct_states == frozenset({marked})
            assert_deterministic_output(c, marked)

    def test_x_wraps_add_sites(self):
        assert len(enumerate_sites(build_grover("00"))) == 22
        assert len(enumerate_sites(build_grover("01"))) == 20

    def test_second_iteration_overrotates(self):
        # amplitude sin((2k+1) pi/6): k=2 leaves only a quarter of the mass
        dist = entries(build_grover("11", iterations=2))
        assert math.isclose(dist["11"], 0.25, abs_tol=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_grover("111")
        with pytest.raises(ValueError):
            build_grover("11", iterations=0)


def test_defaults_table():
    assert set(DEFAULTS) == {"bv", "dj", "grover"}
    for name, builder in DEFAULTS.items():
        assert builder().name.startswith(name)
