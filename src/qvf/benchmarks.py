"""Builders for the three benchmark circuits.

All three are deterministic: noiseless simulation puts the whole output
mass on a single known bitstring, which the builders attach to the circuit
as ``correct_states`` metadata.
"""

from .circuit import Circuit

DATA_QUBITS = 3  # 3-bit secrets/masks over qubits 0..2, ancilla on qubit 3
ANCILLA = 3


def _bits(value: str, width: int, what: str) -> str:
    value = str(value)
    if len(value) != width or set(value) - {"0", "1"}:
        raise ValueError(f"{what} must be a {width}-bit string, got {value!r}")
    return value


def _h_layer(n):
    return [("h", (q,), ()) for q in range(n)]


def build_bernstein_vazirani(secret: str = "011") -> Circuit:
    """Hidden-bitmask circuit on 3 data qubits plus one ancilla.

    Layout: X on the ancilla; H on all four qubits; one CX(data -> ancilla)
    per 1-bit of the secret; H on all four; measure the data qubits.  The
    noiseless output equals the secret.  Sites: 9 + 2 * (1-bits).
    """
    secret = _bits(secret, DATA_QUBITS, "secret")
    gates = [("x", (ANCILLA,), ())]
    gates += _h_layer(4)
    for i, ch in enumerate(secret):
        if ch == "1":
            gates.append(("cx", (i, ANCILLA), ()))
    gates += _h_layer(4)
    return Circuit(
        4,
        gates,
        measured=(0, 1, 2),
        name=f"bv-{secret}",
        correct_states=frozenset({secret}),
    )


def build_deutsch_jozsa(oracle: str = "balanced", mask: str = "111",
                        bit: int = 0) -> Circuit:
    """Constant-vs-balanced test circuit on 3 data qubits plus one ancilla.

    ``oracle`` is "balanced" (parity of ``mask``-selected inputs) or
    "constant" (output fixed to ``bit``).  A constant oracle leaves the
    output on "000"; a balanced one lands on the mask with certainty, so
    the correct set is every non-"000" string.

    The default balanced oracle wraps the first CX in a pair of X gates on
    qubit 0 and appends an X on the ancilla.  Those three gates are
    logically inert (they negate the oracle input and add a global phase)
    and exist so the default circuit exposes exactly 18 fault sites.
    """
    gates = [("x", (ANCILLA,), ())]
    gates += _h_layer(4)
    if oracle == "balanced":
        mask = _bits(mask, DATA_QUBITS, "mask")
        if "1" not in mask:
            raise ValueError("balanced oracle needs a non-zero mask")
        cxs = [("cx", (i, ANCILLA), ()) for i, ch in enumerate(mask) if ch == "1"]
        if mask == "111":
            # padding: input negation on qubit 0 plus an ancilla phase flip
            gates += [("x", (0,), ())] + cxs + [("x", (0,), ()), ("x", (ANCILLA,), ())]
        else:
            gates += cxs
        correct = frozenset(
            format(v, f"0{DATA_QUBITS}b") for v in range(1, 2 ** DATA_QUBITS)
        )
        tag = f"dj-balanced-{mask}"
    elif oracle == "constant":
        if bit not in (0, 1):
            raise ValueError("constant oracle bit must be 0 or 1")
        if bit == 1:
            gates.append(("x", (ANCILLA,), ()))
        correct = frozenset({"0" * DATA_QUBITS})
        tag = f"dj-constant{bit}"
    else:
        raise ValueError(f"unknown oracle kind {oracle!r}")
    gates += _h_layer(4)
    return Circuit(4, gates, measured=(0, 1, 2), name=tag, correct_states=correct)


def build_grover(marked: str = "11", iterations: int = 1) -> Circuit:
    """Two-qubit search circuit; one iteration is exact on two qubits.

    The phase oracle is a CZ written as H-CX-H on qubit 1, X-wrapped on
    every 0-bit of ``marked``; the diffuser is the same CZ wrapped in
    H and X layers.  The default marked state "11" needs no X wraps and
    yields 16 gates / 18 fault sites.
    """
    marked = _bits(marked, 2, "marked")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cz = [("h", (1,), ()), ("cx", (0, 1), ()), ("h", (1,), ())]
    wraps = [("x", (q,), ()) for q, ch in enumerate(marked) if ch == "0"]
    gates = _h_layer(2)
    for _ in range(iterations):
        gates += wraps + cz + wraps
        gates += _h_layer(2)
        gates += [("x", (0,), ()), ("x", (1,), ())]
        gates += cz
        gates += [("x", (0,), ()), ("x", (1,), ())]
        gates += _h_layer(2)
    return Circuit(
        2,
        gates,
        measured=(0, 1),
        name=f"grover-{marked}",
        correct_states=frozenset({marked}),
    )


#: benchmark name -> zero-argument default builder
DEFAULTS = {
    "bv": build_bernstein_vazirani,
    "dj": build_deutsch_jozsa,
    "grover": build_grover,
}
