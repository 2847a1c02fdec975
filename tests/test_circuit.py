"""Structural validation and the bitstring convention."""

import dataclasses
import math

import pytest

from qvf.circuit import (
    Circuit,
    CircuitError,
    Gate,
    bitstring_to_index,
    index_to_bitstring,
)


def test_index_to_bitstring_puts_qubit0_first():
    assert index_to_bitstring(1, 3) == "100"
    assert index_to_bitstring(4, 3) == "001"
    assert index_to_bitstring(6, 3) == "011"


def test_bitstring_round_trip():
    for width in (1, 2, 5):
        for value in range(2 ** width):
            assert bitstring_to_index(index_to_bitstring(value, width)) == value


def test_bitstring_rejects_junk():
    with pytest.raises(CircuitError):
        bitstring_to_index("01x")


class TestGate:
    def test_basic(self):
        g = Gate("cx", (0, 3))
        assert g.qubits == (0, 3)
        assert g.params == ()

    def test_u_params_canonicalized(self):
        g = Gate("u", (0,), (-math.pi / 2, 0.0, 0.0))
        assert 0.0 <= g.params[0] <= math.pi
        assert math.isclose(g.params[0], math.pi / 2)

    def test_negative_qubit(self):
        with pytest.raises(CircuitError, match="negative qubit index"):
            Gate("h", (-1,))

    def test_bad_arity(self):
        with pytest.raises(CircuitError):
            Gate("h", (0, 1))
        with pytest.raises(CircuitError):
            Gate("cx", (2,))

    def test_bad_param_count(self):
        with pytest.raises(CircuitError):
            Gate("u", (0,), (1.0,))
        with pytest.raises(CircuitError):
            Gate("h", (0,), (1.0,))
        for bad in (math.inf, -math.inf, math.nan):  # a CircuitError, so qasm can place it
            with pytest.raises(CircuitError, match="u parameters must be finite"):
                Gate("u", (0,), (0.0, bad, 0.0))

    def test_duplicate_two_qubit_targets(self):
        with pytest.raises(CircuitError):
            Gate("cx", (1, 1))

    def test_unknown_name(self):
        with pytest.raises(CircuitError):
            Gate("ccx", (0, 1))


class TestCircuit:
    def test_tuple_gates_coerced(self):
        c = Circuit(2, [("h", (0,), ()), ("cx", (0, 1), ())], (0, 1))
        assert all(isinstance(g, Gate) for g in c.gates)

    def test_needs_a_qubit(self):
        with pytest.raises(CircuitError, match="circuit needs at least one qubit"):
            Circuit(0, [], (0,))

    def test_target_out_of_range(self):
        with pytest.raises(CircuitError):
            Circuit(2, [("h", (2,), ())], (0,))

    def test_measured_must_exist(self):
        with pytest.raises(CircuitError):
            Circuit(2, [], ())
        with pytest.raises(CircuitError):
            Circuit(2, [], (0, 0))
        with pytest.raises(CircuitError):
            Circuit(2, [], (5,))

    def test_correct_states_validated(self):
        with pytest.raises(CircuitError):
            Circuit(2, [], (0, 1), correct_states={"0"})
        with pytest.raises(CircuitError):
            Circuit(2, [], (0, 1), correct_states={"2x"})
        with pytest.raises(CircuitError, match="non-empty"):
            Circuit(2, [], (0, 1), correct_states=set())
        c = Circuit(2, [], (0, 1), correct_states={"01", "10"})
        assert c.correct_states == frozenset({"01", "10"})

    def test_with_metadata(self):
        c = Circuit(1, [("h", (0,), ())], (0,))
        named = dataclasses.replace(c, name="coin", correct_states={"0"})
        assert named.name == "coin"
        assert named.correct_states == frozenset({"0"})
        assert c.name is None and c.correct_states is None
        assert named.gates == c.gates
        # the copy is validated like any other circuit
        with pytest.raises(CircuitError, match="bad correct state"):
            dataclasses.replace(c, correct_states={"01"})
