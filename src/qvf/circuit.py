"""Circuit structure: an ordered gate list plus a measurement map.

Bitstring convention
--------------------
State indices are little-endian: bit ``q`` of basis index ``i`` is
``(i >> q) & 1``.  Output bitstrings place qubit 0 in the LEFTMOST
character (the string reads in measurement-map order).  Every formatter and
parser in the package goes through :func:`index_to_bitstring` /
:func:`bitstring_to_index`.
"""

import math
from dataclasses import dataclass

from .gates import SIGNATURES, canonical_u_params


class CircuitError(ValueError):
    """A circuit or gate violates a structural constraint."""


def index_to_bitstring(index: int, width: int) -> str:
    return "".join(["1" if (index >> p) & 1 else "0" for p in range(width)])


def bitstring_to_index(bits: str) -> int:
    value = 0
    for p, ch in enumerate(bits):
        if ch == "1":
            value |= 1 << p
        elif ch != "0":
            raise CircuitError(f"invalid bitstring {bits!r}")
    return value


@dataclass(frozen=True)
class Gate:
    """One gate application: name, target qubits, numeric parameters.

    ``u`` parameters are canonicalized on construction (theta in [0, pi],
    phi and lam in [0, 2*pi)); the reduction changes at most the global
    phase of the matrix.
    """

    name: str
    qubits: tuple
    params: tuple = ()

    def __post_init__(self):
        if self.name not in SIGNATURES:
            raise CircuitError(f"unknown gate {self.name!r}")
        arity, n_params = SIGNATURES[self.name]
        qubits = tuple(int(q) for q in self.qubits)
        if len(qubits) != arity:
            raise CircuitError(
                f"{self.name} takes {arity} qubit(s), got {len(qubits)}"
            )
        if any(q < 0 for q in qubits):
            raise CircuitError("negative qubit index")
        if arity == 2 and qubits[0] == qubits[1]:
            raise CircuitError(f"{self.name} targets must be distinct")
        params = tuple(float(p) for p in self.params)
        if len(params) != n_params:
            raise CircuitError(
                f"{self.name} takes {n_params} parameter(s), got {len(params)}"
            )
        if not all(map(math.isfinite, params)):
            raise CircuitError(f"{self.name} parameters must be finite")
        if self.name == "u":
            params = canonical_u_params(*params)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class Circuit:
    """Ordered gates over ``n_qubits`` plus the measured-qubit list.

    ``measured[p]`` is the qubit reported at string position p.  Optional
    metadata: ``name`` identifies the circuit in campaign records, and
    ``correct_states`` is the set of fault-free output bitstrings used for
    vulnerability metrics.
    """

    n_qubits: int
    gates: tuple
    measured: tuple
    name: str = None
    correct_states: frozenset = None

    def __post_init__(self):
        if self.n_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        gates = tuple(
            g if isinstance(g, Gate) else Gate(*g) for g in self.gates
        )
        for g in gates:
            for q in g.qubits:
                if q >= self.n_qubits:
                    raise CircuitError(
                        f"gate {g.name} targets qubit {q} of {self.n_qubits}"
                    )
        measured = tuple(int(q) for q in self.measured)
        if not measured:
            raise CircuitError("measured qubit list is empty")
        if len(set(measured)) != len(measured):
            raise CircuitError("duplicate measured qubit")
        for q in measured:
            if not 0 <= q < self.n_qubits:
                raise CircuitError(f"measured qubit {q} out of range")
        correct = self.correct_states
        if correct is not None:
            correct = frozenset(str(s) for s in correct)
            if not correct:
                raise CircuitError("correct_states must be non-empty when given")
            for s in correct:
                if len(s) != len(measured) or set(s) - {"0", "1"}:
                    raise CircuitError(f"bad correct state {s!r}")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "correct_states", correct)
