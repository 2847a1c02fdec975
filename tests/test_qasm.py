"""Parser and emitter for the OpenQASM 2.0 subset."""

import math

import numpy as np
import pytest

from support import entries, random_circuit
from qvf.benchmarks import build_bernstein_vazirani, build_deutsch_jozsa, build_grover
from qvf.circuit import Circuit
from qvf.qasm import QasmError, emit_qasm, parse_qasm

MINIMAL = "qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0];"


class TestParse:
    def test_minimal_program(self):
        c = parse_qasm(MINIMAL)
        assert c.n_qubits == 1
        assert len(c.gates) == 1
        assert c.gates[0].name == "h"
        assert c.measured == (0,)

    def test_header_and_include_accepted(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n' + MINIMAL
        assert parse_qasm(text).gates == parse_qasm(MINIMAL).gates

    def test_u_pi_zero_pi_acts_as_x(self):
        text = "qreg q[1]; creg c[1]; u(pi,0,pi) q[0]; measure q[0] -> c[0];"
        dist = entries(parse_qasm(text))
        assert math.isclose(dist["1"], 1.0, abs_tol=1e-12)

    def test_parameter_grammar(self):
        text = (
            "qreg q[1]; creg c[1];\n"
            "u(pi/2, 3*pi/4, 0.25) q[0];\n"
            "u(+pi, 2.5e-1, 1) q[0];\n"
            "measure q[0] -> c[0];"
        )
        c = parse_qasm(text)
        assert c.gates[0].params == (math.pi / 2, 3 * math.pi / 4, 0.25)
        assert c.gates[1].params == (math.pi, 0.25, 1.0)

    def test_negative_parameters_canonicalized_like_direct_construction(self):
        text = "qreg q[1]; creg c[1]; u(-pi/2, -0.5, 2*pi) q[0]; measure q[0] -> c[0];"
        expected = Circuit(1, [("u", (0,), (-math.pi / 2, -0.5, 2 * math.pi))], (0,))
        assert parse_qasm(text).gates == expected.gates

    def test_measurement_map_uses_classical_positions(self):
        text = (
            "qreg q[3]; creg c[2];\n"
            "x q[2];\n"
            "measure q[2] -> c[0];\n"
            "measure q[0] -> c[1];"
        )
        c = parse_qasm(text)
        assert c.measured == (2, 0)
        assert entries(c) == {"10": 1.0}

    def test_classical_gaps_compact_in_index_order(self):
        text = (
            "qreg q[2]; creg c[4];\n"
            "measure q[1] -> c[3];\n"
            "measure q[0] -> c[1];"
        )
        assert parse_qasm(text).measured == (0, 1)

    def test_metadata_comments(self):
        text = (
            "// qvf:name weird-name\n"
            "// qvf:correct 01 10\n"
            "// a plain comment\n"
            "qreg q[2]; creg c[2]; h q[0];\n"
            "measure q[0] -> c[0]; measure q[1] -> c[1];"
        )
        c = parse_qasm(text)
        assert c.name == "weird-name"
        assert c.correct_states == frozenset({"01", "10"})

    def test_plain_comments_ignored(self):
        text = "qreg q[1]; // trailing words pi ; measure\ncreg c[1]; h q[0]; measure q[0] -> c[0];"
        assert len(parse_qasm(text).gates) == 1


class TestParseErrors:
    def check(self, text, fragment, line=None):
        with pytest.raises(QasmError) as ei:
            parse_qasm(text)
        assert fragment in str(ei.value)
        if line is not None:
            assert ei.value.line == line
        return ei.value

    # gate shape errors point at the gate keyword
    def test_arity_error(self):
        err = self.check("qreg q[2]; creg c[1]; cx q[0]; measure q[0] -> c[0];", "2 qubit(s)",
                         line=1)
        assert err.col == 23

    def test_wrong_parameter_count(self):
        err = self.check("qreg q[1]; creg c[1]; u(1) q[0]; measure q[0] -> c[0];",
                         "3 parameter(s)", line=1)
        assert err.col == 23
        err = self.check("qreg q[1]; creg c[1]; h(0.5) q[0]; measure q[0] -> c[0];",
                         "0 parameter(s)", line=1)
        assert err.col == 23

    @pytest.mark.parametrize("text, fragment, line, col", [
        ("qreg q[2];\ncreg c[2];\n// qvf:correct 111\n"
         "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n", "bad correct state '111'", 3, 1),
        ("qreg q[1]; creg c[1]; measure q[0] -> c[0]; // qvf:correct 1 2\n",
         "bad correct state '2'", 1, 45),
    ])
    def test_bad_correct_comment_position(self, text, fragment, line, col):
        # the finished circuit checks the states; the error points at the comment
        err = self.check(text, f"line {line}, col {col}: {fragment}", line=line)
        assert err.col == col

    @pytest.mark.parametrize("text, message", [
        ("qreg q[1] creg c[1];", "line 1, col 11: expected ;, got 'creg'"),
        ("qreg q[1.5]; creg c[1];", "line 1, col 8: register size must be an integer"),
        ("qreg q[1]; creg c[1]; 3 q[0];", "line 1, col 23: expected a statement, got '3'"),
        ("qreg q[1]; creg c[1]; creg d[1];", "line 1, col 23: only one creg is supported"),
        ("creg c[1];", "line 1, col 1: program declares no qreg"),
        ("qreg q[1]; creg c[1]; u(pi/x, 0, 0) q[0]; measure q[0] -> c[0];",
         "line 1, col 28: expected a number after '/'"),
        ("qreg q[1]; creg c[1]; u(1e400, 0, 0) q[0]; measure q[0] -> c[0];",
         "line 1, col 23: u parameters must be finite"),
    ])
    def test_statement_errors(self, text, message):
        with pytest.raises(QasmError) as ei:
            parse_qasm(text)
        assert str(ei.value) == message

    def test_unknown_statement_position(self):
        err = self.check("qreg q[1];\ncreg c[1];\nbogus q[0];\nmeasure q[0] -> c[0];", "bogus", line=3)
        assert err.col == 1

    def test_unexpected_character_position(self):
        err = self.check("qreg q[1];\ncreg c[1];\nh q[0!];\nmeasure q[0] -> c[0];", "'!'", line=3)
        assert err.col == 6

    def test_register_misuse(self):
        self.check("creg c[1]; h q[0];", "no qreg")
        self.check("qreg q[1]; qreg r[1];", "only one qreg")
        self.check("qreg q[1]; creg c[1]; h r[0]; measure q[0] -> c[0];", "unknown register")
        self.check("qreg q[1]; creg c[1]; h q[1]; measure q[0] -> c[0];", "out of range")
        self.check("qreg q[0];", ">= 1")

    def test_measure_misuse(self):
        self.check("qreg q[1]; creg c[1]; h q[0];", "measures no qubits")
        self.check(
            "qreg q[2]; creg c[2]; measure q[0] -> c[0]; measure q[1] -> c[0];",
            "written twice",
        )
        self.check(
            "qreg q[1]; creg c[2]; measure q[0] -> c[0]; measure q[0] -> c[1];",
            "measured twice",
        )

    def test_malformed_parameters(self):
        self.check("qreg q[1]; creg c[1]; u(pi, *, 0) q[0]; measure q[0] -> c[0];", "malformed")
        self.check("qreg q[1]; creg c[1]; u(pi/0, 0, 0) q[0]; measure q[0] -> c[0];", "zero")
        self.check("qreg q[1]; creg c[1]; u(2*2, 0, 0) q[0]; measure q[0] -> c[0];", "expected pi")

    def test_version_check(self):
        self.check("OPENQASM 3.0;\n" + MINIMAL, "unsupported version", line=1)

    def test_duplicate_two_qubit_target(self):
        err = self.check("qreg q[2]; creg c[1]; cx q[1],q[1]; measure q[0] -> c[0];",
                         "cx targets must be distinct", line=1)
        assert err.col == 23


class TestEmit:
    def test_header_lines(self):
        text = emit_qasm(Circuit(1, [], (0,)))
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        assert "measure q[0] -> c[0];" in lines

    def test_metadata_round_trip(self):
        c = build_grover()
        back = parse_qasm(emit_qasm(c))
        assert back.name == "grover-11"
        assert back.correct_states == frozenset({"11"})

    def test_benchmarks_round_trip_gate_exact(self):
        for c in (build_bernstein_vazirani(), build_deutsch_jozsa(), build_grover()):
            back = parse_qasm(emit_qasm(c))
            assert back.gates == c.gates
            assert back.measured == c.measured
            assert back.n_qubits == c.n_qubits

    def test_u_parameters_survive_exactly(self):
        c = Circuit(1, [("u", (0,), (0.3, 1.2, 0.0))], (0,))
        back = parse_qasm(emit_qasm(c))
        assert back.gates[0].params == c.gates[0].params

    def test_random_round_trips(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            c = random_circuit(rng)
            back = parse_qasm(emit_qasm(c))
            assert back.gates == c.gates
            assert back.measured == c.measured
            assert back.n_qubits == c.n_qubits
            assert back.name == c.name
            expected_correct = frozenset(c.correct_states) if c.correct_states else None
            assert back.correct_states == expected_correct
