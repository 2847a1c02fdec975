"""OpenQASM 2.0 subset: parser and emitter.

Supported programs: an optional ``OPENQASM 2.0;`` header and ``include``
line, exactly one ``qreg`` and one ``creg``, gate applications drawn from
{h, x, y, z, s, sdg, t, tdg, u(theta, phi, lambda), cx, cz}, and
``measure q[i] -> c[j];`` statements.  Gate parameters accept decimal
literals (with exponents) and multiples of pi of the form
``[+|-][k*]pi[/m]``.

The output bitstring position of a measured qubit is its classical bit
index: ``measure q[i] -> c[j]`` puts qubit i at string position j (lower
classical indices are leftmost; gaps are compacted in index order).

Two comment forms carry optional circuit metadata through files::

    // qvf:name grover-11
    // qvf:correct 11

Everything else after ``//`` is ignored.  Parse errors raise
:class:`QasmError` with 1-based line and column.
"""

import math
import re

from .circuit import Circuit, CircuitError, Gate
from .gates import SIGNATURES

PI = math.pi


class QasmError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<sym>[\[\](),;*/+-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    """Token stream of (kind, value, line, col) and the metadata comments
    (a correct comment with its position); comments stripped here."""
    tokens = []
    meta = {"name": None, "correct": None, "correct_at": None}
    for lineno, line in enumerate(text.splitlines(), start=1):
        comment_at = line.find("//")
        if comment_at >= 0:
            comment = line[comment_at + 2:].strip()
            if comment.startswith("qvf:name "):
                meta["name"] = comment[len("qvf:name "):].strip()
            elif comment.startswith("qvf:correct "):
                meta["correct"] = comment[len("qvf:correct "):].split()
                meta["correct_at"] = (lineno, comment_at + 1)
            line = line[:comment_at]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(line, pos)
            if not m:
                raise QasmError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup
            tokens.append((kind, m.group(), lineno, m.start() + 1))
            pos = m.end()
    last_line = text.count("\n") + 1
    tokens.append(("eof", "", last_line, 1))
    return tokens, meta


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.meta = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        _, _, line, col = tok or self.peek()
        raise QasmError(message, line, col)

    def expect(self, kind, value=None, what=None):
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            self.error(f"expected {what or value or kind}, got {tok[1]!r}")
        return self.next()

    def expect_int(self, what):
        tok = self.expect("num", what=what)
        if re.fullmatch(r"\d+", tok[1]) is None:
            self.error(f"{what} must be an integer", tok)
        return int(tok[1])

    # -- grammar ------------------------------------------------------

    def parse(self) -> Circuit:
        qreg = None  # (name, size)
        creg = None
        gates = []
        measures = {}  # classical bit -> qubit
        measured_qubits = set()

        if self.peek()[:2] == ("id", "OPENQASM"):
            self.next()
            version = self.expect("num", what="version")
            if version[1] != "2.0":
                self.error(f"unsupported version {version[1]}", version)
            self.expect("sym", ";")
        while self.peek()[:2] == ("id", "include"):
            self.next()
            self.expect("str", what="include path")
            self.expect("sym", ";")

        while True:
            tok = self.peek()
            if tok[0] == "eof":
                break
            if tok[0] != "id":
                self.error(f"expected a statement, got {tok[1]!r}")
            keyword = tok[1]
            if keyword == "qreg":
                if qreg is not None:
                    self.error("only one qreg is supported", tok)
                self.next()
                qreg = self._register_decl()
            elif keyword == "creg":
                if creg is not None:
                    self.error("only one creg is supported", tok)
                self.next()
                creg = self._register_decl()
            elif keyword == "measure":
                self.next()
                qb = self._indexed_ref(qreg, "qreg", tok)
                self.expect("arrow", what="->")
                cb = self._indexed_ref(creg, "creg", tok)
                if cb in measures:
                    self.error(f"classical bit {cb} written twice", tok)
                if qb in measured_qubits:
                    self.error(f"qubit {qb} measured twice", tok)
                measures[cb] = qb
                measured_qubits.add(qb)
                self.expect("sym", ";")
            elif keyword in SIGNATURES:
                self.next()
                gates.append(self._gate(keyword, qreg, tok))
            else:
                self.error(f"unknown gate or statement {keyword!r}", tok)

        if qreg is None:
            self.error("program declares no qreg")
        if not measures:
            self.error("program measures no qubits")
        measured = tuple(measures[cb] for cb in sorted(measures))
        correct = self.meta["correct"]
        try:  # every other check passed above, so only the correct states can fail
            return Circuit(
                qreg[1],
                tuple(gates),
                measured,
                name=self.meta["name"],
                correct_states=frozenset(correct) if correct else None,
            )
        except CircuitError as exc:
            raise QasmError(str(exc), *self.meta["correct_at"]) from None

    def _register_decl(self):
        name = self.expect("id", what="register name")[1]
        self.expect("sym", "[")
        size = self.expect_int("register size")
        if size < 1:
            self.error("register size must be >= 1")
        self.expect("sym", "]")
        self.expect("sym", ";")
        return (name, size)

    def _indexed_ref(self, reg, regkind, tok):
        if reg is None:
            self.error(f"no {regkind} declared", tok)
        name_tok = self.expect("id", what=f"{regkind} name")
        if name_tok[1] != reg[0]:
            self.error(f"unknown register {name_tok[1]!r}", name_tok)
        self.expect("sym", "[")
        idx_tok = self.peek()
        index = self.expect_int("register index")
        if index >= reg[1]:
            self.error(f"index {index} out of range for {name_tok[1]}[{reg[1]}]", idx_tok)
        self.expect("sym", "]")
        return index

    def _gate(self, name, qreg, tok):
        params = []
        if self.peek()[:2] == ("sym", "("):
            self.next()
            params.append(self._param())
            while self.peek()[:2] == ("sym", ","):
                self.next()
                params.append(self._param())
            self.expect("sym", ")")
        qubits = [self._indexed_ref(qreg, "qreg", tok)]
        while self.peek()[:2] == ("sym", ","):
            self.next()
            qubits.append(self._indexed_ref(qreg, "qreg", tok))
        try:  # Gate checks arity, parameter count and distinct targets
            gate = Gate(name, qubits, params)
        except CircuitError as exc:
            self.error(str(exc), tok)
        self.expect("sym", ";")
        return gate

    def _param(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok[:2] == ("sym", "-"):
            self.next()
            sign = -1.0
        elif tok[:2] == ("sym", "+"):
            self.next()
        tok = self.next()
        if tok[0] == "num":
            value = float(tok[1])
            if self.peek()[:2] == ("sym", "*"):
                self.next()
                pi_tok = self.next()
                if pi_tok[:2] != ("id", "pi"):
                    self.error("expected pi after '*'", pi_tok)
                value *= PI
                value = self._maybe_divide(value)
        elif tok[:2] == ("id", "pi"):
            value = self._maybe_divide(PI)
        else:
            self.error(f"malformed parameter near {tok[1]!r}", tok)
        return sign * value

    def _maybe_divide(self, value: float) -> float:
        if self.peek()[:2] == ("sym", "/"):
            self.next()
            div = self.next()
            if div[0] != "num":
                self.error("expected a number after '/'", div)
            denom = float(div[1])
            if denom == 0.0:
                self.error("division by zero", div)
            return value / denom
        return value


def parse_qasm(text: str) -> Circuit:
    """Parse a program in the supported subset into a Circuit."""
    return _Parser(text).parse()


def emit_qasm(circuit: Circuit) -> str:
    """Emit a program that parses back to an identical gate list.

    Parameters are written with full repr precision, so numeric round-trip
    is exact.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    if circuit.name:
        lines.append(f"// qvf:name {circuit.name}")
    if circuit.correct_states:
        lines.append(f"// qvf:correct {' '.join(sorted(circuit.correct_states))}")
    lines.append(f"qreg q[{circuit.n_qubits}];")
    lines.append(f"creg c[{len(circuit.measured)}];")
    for gate in circuit.gates:
        args = ",".join(f"q[{q}]" for q in gate.qubits)
        if gate.params:
            ps = ",".join(repr(float(p)) for p in gate.params)
            lines.append(f"{gate.name}({ps}) {args};")
        else:
            lines.append(f"{gate.name} {args};")
    for pos, q in enumerate(circuit.measured):
        lines.append(f"measure q[{q}] -> c[{pos}];")
    return "\n".join(lines) + "\n"
