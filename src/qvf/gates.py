"""Gate matrices for the supported gate set.

Single-qubit matrices are indexed by basis value (row/column 0 is |0>).
Two-qubit matrices use sub-indices where bit ``a`` is the value of the
gate's ``a``-th target, so for ``cx`` the control is bit 0 and the target
bit 1.
"""

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi

_SQRT1_2 = 1.0 / math.sqrt(2.0)

H = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)  #: Hadamard
X = np.array([[0, 1], [1, 0]], dtype=complex)  #: bit flip
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)  #: bit+phase flip
Z = np.array([[1, 0], [0, -1]], dtype=complex)  #: phase flip
S = np.array([[1, 0], [0, 1j]], dtype=complex)  #: quarter-turn phase
SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
T = np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=complex)  #: eighth-turn phase
TDG = np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=complex)

# |c,t> -> |c, t xor c> with c = sub-bit 0, t = sub-bit 1
CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic single-qubit rotation.

    ::

        [[ cos(theta/2),              -exp(i*lam) * sin(theta/2)      ],
         [ exp(i*phi) * sin(theta/2),  exp(i*(phi+lam)) * cos(theta/2)]]

    Covers every single-qubit gate; u(pi, 0, pi) is X and u(pi/2, 0, pi)
    is the Hadamard.
    """
    half = 0.5 * theta
    c = math.cos(half)
    s = math.sin(half)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def canonical_u_params(theta: float, phi: float, lam: float):
    """Map (theta, phi, lam) to theta in [0, pi], phi and lam in [0, 2*pi).

    Uses u(2*pi - t, p + pi, l + pi) == -u(t, p, l): the reduced parameters
    describe the same operation up to global phase, which no output
    distribution can observe.
    """
    for v in (theta, phi, lam):
        if not math.isfinite(v):
            raise ValueError("u parameters must be finite")
    theta = theta % TWO_PI
    if theta > math.pi:
        theta = TWO_PI - theta
        phi = phi + math.pi
        lam = lam + math.pi
    return theta, phi % TWO_PI, lam % TWO_PI


_FIXED = {
    "h": H,
    "x": X,
    "y": Y,
    "z": Z,
    "s": S,
    "sdg": SDG,
    "t": T,
    "tdg": TDG,
    "cx": CX,
    "cz": CZ,
}

#: gate name -> (number of targets, number of parameters)
SIGNATURES = {name: (len(m).bit_length() - 1, 0) for name, m in _FIXED.items()} | {"u": (1, 3)}


def gate_matrix(name: str, params=()) -> np.ndarray:
    """Unitary matrix for a named gate; parameters only apply to ``u``."""
    if name == "u":
        if len(params) != 3:
            raise ValueError("u takes exactly three parameters")
        return u_matrix(*params)
    try:
        return _FIXED[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None
