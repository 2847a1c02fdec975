"""Parametric machine-noise model and exact density-matrix evolution.

The model combines four standard ingredients, all configurable per qubit
or per gate kind:

* amplitude damping after each gate on its target qubits, with
  gamma = 1 - exp(-d / T1) for gate duration d;
* phase damping with lam = 1 - exp(-d / T2phi), 1/T2phi = 1/T2 - 1/(2*T1)
  (so T2 = 2*T1 means no pure dephasing);
* symmetric depolarizing with a per-gate-kind probability p, applied to
  each target qubit: rho -> (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z);
* readout bit flips on the final measured marginal, with p01 the chance of
  reading 1 for a true 0 and p10 the chance of reading 0 for a true 1.

Durations are nanoseconds, T1/T2 microseconds.  Absent settings are ideal
(infinite coherence, zero duration, zero probabilities), so an empty
config is exactly noiseless.

Density matrices are stored flat: rho[r, c] is entry r * 2^n + c of a 4^n
vector, so row bit q is flat qubit q + n and column bit q is flat qubit q.
A gate U on qubits Q is U on flat qubits Q + n, then conj(U) on flat qubits
Q; the channels after it on qubit q fuse into one 4x4 superoperator
sum_K kron(K, K*) on flat qubits (q, q + n).  Every step runs on the
state-vector kernel :func:`qvf.simulator.apply_matrix` over 2n qubits, and
a (4^n, G) block of flat matrices takes the same steps, one per column.
Noisy distributions come from :mod:`qvf.simulator` called with ``noise``.

Config document format (INI)::

    [qubits]
    t1 = 120      ; microseconds, default for every qubit
    t2 = 100
    p01 = 0.015   ; readout flip probabilities
    p10 = 0.03
    0.t1 = 80     ; per-qubit override: "<qubit>.<key>"

    [gates]
    duration = 35        ; nanoseconds, default for every gate kind
    depolarizing = 0.001
    cx.duration = 300    ; per-gate override: "<gate>.<key>"
    cx.depolarizing = 0.01
"""

import configparser
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuit import Circuit
from .gates import SIGNATURES, X, Y, Z, gate_matrix
from .simulator import apply_matrix, check_size, marginalize, require, zero_state

US_PER_NS = 1e-3

TRACE_TOL = 1e-9
HERMITIAN_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


class NoiseConfigError(ValueError):
    """Malformed or physically inconsistent noise configuration."""


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit coherence/readout data plus per-gate duration/depolarizing.

    The dict fields hold overrides; the ``default_*`` fields apply
    everywhere else.  ``t2 <= 2 * t1`` must hold for every effective pair.
    """

    default_t1: float = math.inf  # microseconds
    default_t2: float = math.inf
    default_p01: float = 0.0
    default_p10: float = 0.0
    default_duration: float = 0.0  # nanoseconds
    default_depolarizing: float = 0.0
    t1: dict = field(default_factory=dict)
    t2: dict = field(default_factory=dict)
    p01: dict = field(default_factory=dict)
    p10: dict = field(default_factory=dict)
    duration: dict = field(default_factory=dict)
    depolarizing: dict = field(default_factory=dict)

    def __post_init__(self):
        unit = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
        rules = {"t1": ("positive", lambda v: v > 0), "t2": ("positive", lambda v: v > 0),
                 "p01": unit, "p10": unit, "depolarizing": unit,
                 "duration": (">= 0", lambda v: v >= 0)}
        for name, (what, ok) in rules.items():
            values = {"default": getattr(self, f"default_{name}"), **getattr(self, name)}
            for where, v in values.items():
                if not ok(v):
                    raise NoiseConfigError(f"{name}[{where}] = {v!r} must be {what}")
        for q in set(self.t1) | set(self.t2) | {None}:  # None: the defaults
            t1, t2 = self.qubit_t1(q), self.qubit_t2(q)
            if not math.isinf(t2) and t2 > 2.0 * t1:  # no t2: no pure dephasing
                where = "default" if q is None else f"qubit {q}"
                raise NoiseConfigError(f"{where}: t2 = {t2} exceeds 2 * t1 = {2 * t1}")

    def qubit_t1(self, q: int) -> float:
        return self.t1.get(q, self.default_t1)

    def qubit_t2(self, q: int) -> float:
        return self.t2.get(q, self.default_t2)

    def readout(self, q: int):
        return (self.p01.get(q, self.default_p01), self.p10.get(q, self.default_p10))

    def gate_duration(self, name: str) -> float:
        return self.duration.get(name, self.default_duration)

    def gate_depolarizing(self, name: str) -> float:
        return self.depolarizing.get(name, self.default_depolarizing)

    def amplitude_damping_gamma(self, name: str, q: int) -> float:
        d_us = self.gate_duration(name) * US_PER_NS
        return 1.0 - math.exp(-d_us / self.qubit_t1(q))

    def phase_damping_lambda(self, name: str, q: int) -> float:
        t2 = self.qubit_t2(q)
        if math.isinf(t2):
            return 0.0
        rate = max(0.0, 1.0 / t2 - 0.5 / self.qubit_t1(q))  # 1 / T2phi
        d_us = self.gate_duration(name) * US_PER_NS
        return 1.0 - math.exp(-d_us * rate)


IDEAL = NoiseModel()


def _parse_section(section, plain_keys, sub_parser, what):
    """NoiseModel keyword arguments from one config section: plain keys set
    the defaults, "<entity>.<key>" keys per-entity overrides."""
    kwargs = {k: {} for k in plain_keys}
    for key, raw in section.items():
        try:
            value = float(raw)
        except ValueError:
            raise NoiseConfigError(f"{what} {key} = {raw!r} is not a number") from None
        if key in plain_keys:
            kwargs[f"default_{key}"] = value
            continue
        entity, dot, sub = key.partition(".")
        if not dot or sub not in plain_keys:
            raise NoiseConfigError(f"unknown {what} key {key!r}")
        kwargs[sub][sub_parser(entity)] = value
    return kwargs


def load_noise_config(text: str) -> NoiseModel:
    """Parse an INI noise document; absent keys fall back to ideal values."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise NoiseConfigError(f"malformed noise config: {exc}") from None
    extra = set(cp.sections()) - {"qubits", "gates"}
    if extra:
        raise NoiseConfigError(f"unknown section(s) {sorted(extra)}")

    def qubit_key(text_key: str) -> int:
        if not text_key.isdigit():
            raise NoiseConfigError(f"bad qubit index {text_key!r}")
        return int(text_key)

    def gate_key(text_key: str) -> str:
        if text_key not in SIGNATURES:
            raise NoiseConfigError(f"unknown gate kind {text_key!r}")
        return text_key

    kwargs = {}
    for name, keys, parse in (("qubits", ("t1", "t2", "p01", "p10"), qubit_key),
                              ("gates", ("duration", "depolarizing"), gate_key)):
        if cp.has_section(name):
            kwargs.update(_parse_section(cp[name], keys, parse, name[:-1]))
    return NoiseModel(**kwargs)


def load_noise_file(path) -> NoiseModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_noise_config(fh.read())


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def amplitude_damping_kraus(gamma: float):
    """{K0 = [[1, 0], [0, sqrt(1-g)]], K1 = [[0, sqrt(g)], [0, 0]]}"""
    return (np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex))


def phase_damping_kraus(lam: float):
    """{K0 = [[1, 0], [0, sqrt(1-l)]], K1 = [[0, 0], [0, sqrt(l)]]}"""
    return (np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex),
            np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex))


def depolarizing_kraus(p: float):
    """{sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z}"""
    w = math.sqrt(p / 3.0)
    return (math.sqrt(1.0 - p) * np.eye(2, dtype=complex), w * X, w * Y, w * Z)


@lru_cache(maxsize=256)
def _superoperator(gamma: float, lam: float, p: float):
    """Damping, dephasing and depolarizing in turn as one 4x4 matrix on
    flat qubits (q, q + n), each channel sum_K kron(K, K*); None when all
    three are the identity."""
    out = None
    for kraus, value in ((amplitude_damping_kraus, gamma),
                         (phase_damping_kraus, lam), (depolarizing_kraus, p)):
        if value > 0.0:
            sup = sum(np.kron(k, k.conj()) for k in kraus(value))
            out = sup if out is None else sup @ out
    return out


def gate_steps(model: NoiseModel, name: str, mat: np.ndarray, qubits, n_qubits: int):
    """(name, steps) taking a flat rho through one gate and its noise: the
    (matrix, flat qubits) pairs ``mat`` on the row bits, its conjugate on the
    column bits and one channel superoperator per target.  ``mat`` may be a
    (G, d, d) stack, one matrix per block column."""
    steps = [(mat, tuple(q + n_qubits for q in qubits)), (mat.conj(), tuple(qubits))]
    for q in qubits:
        sup = _superoperator(model.amplitude_damping_gamma(name, q),
                             model.phase_damping_lambda(name, q),
                             model.gate_depolarizing(name))
        if sup is not None:
            steps.append((sup, (q, q + n_qubits)))
    return name, steps


def compile_steps(model: NoiseModel, gates, n_qubits: int):
    """:func:`gate_steps` for every gate of a circuit, in order."""
    return [
        gate_steps(model, g.name, gate_matrix(g.name, g.params), g.qubits, n_qubits)
        for g in gates
    ]


def _diagonal(n_qubits: int) -> np.ndarray:
    """Flat indices of the diagonal entries rho[i, i]."""
    return np.arange(1 << n_qubits) * ((1 << n_qubits) + 1)


def evolve(rho: np.ndarray, n_qubits: int, program) -> np.ndarray:
    """Run a flat rho (4^n vector or (4^n, G) block) through compiled gates
    in place, checking every column's trace after each gate."""
    diag = _diagonal(n_qubits)
    for name, steps in program:
        for mat, qubits in steps:
            apply_matrix(rho, 2 * n_qubits, mat, qubits)
        trace = rho[diag].sum(axis=0).real
        require((np.abs(trace - 1.0) <= TRACE_TOL, f"trace drifted to {{!r}} after {name}", trace))
    return rho


def check_density(rho: np.ndarray, n_qubits: int):
    """Raise SimulationError unless every column of a flat rho has unit
    trace, is Hermitian and has no eigenvalue below EIGENVALUE_FLOOR."""
    d = 1 << n_qubits
    mats = rho.reshape(d, d, -1).transpose(2, 0, 1)
    trace = np.trace(mats, axis1=1, axis2=2)
    skew = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)), axis=(1, 2))
    smallest = np.linalg.eigvalsh(mats)[:, 0]
    if rho.ndim == 1:  # a lone matrix has no column to name
        trace, skew, smallest = trace[0], skew[0], smallest[0]
    require(
        (np.abs(trace - 1.0) <= TRACE_TOL, "density trace drifted to {!r}", trace),
        (skew <= HERMITIAN_TOL, "density matrix is not Hermitian (off by {!r})", skew),
        (smallest >= EIGENVALUE_FLOOR, "negative eigenvalue {!r}", smallest),
    )


@dataclass(frozen=True)
class DensityMatrix:
    """Full 2^n x 2^n state; validation enforces the physicality checks."""

    n_qubits: int
    entries: np.ndarray

    def validate(self):
        check_density(self.entries.reshape(-1), self.n_qubits)
        return self


def evolve_density(circuit: Circuit, model: NoiseModel) -> DensityMatrix:
    """Exact noisy evolution of |0...0><0...0| through the circuit."""
    n = circuit.n_qubits
    check_size(n, dims=2)
    rho = evolve(zero_state(2 * n), n, compile_steps(model, circuit.gates, n))
    return DensityMatrix(n, rho.reshape(1 << n, 1 << n)).validate()


def readout_probabilities(rho: np.ndarray, n_qubits: int, model: NoiseModel, measured):
    """Read-out probabilities over the measured qubits of a flat rho, or of
    each column of a block: the clipped diagonal, marginalised, then through
    the readout flips."""
    probs = np.clip(rho[_diagonal(n_qubits)].real, 0.0, None)
    return apply_readout_flips(marginalize(probs, n_qubits, measured), model, measured)


def apply_readout_flips(probs: np.ndarray, model: NoiseModel, measured) -> np.ndarray:
    """Push marginal probabilities (a 2^m vector or a (2^m, G) block)
    through the readout flip matrices."""
    out = np.array(probs, dtype=float)
    for pos, q in enumerate(measured):
        p01, p10 = model.readout(q)
        if p01 == 0.0 and p10 == 0.0:
            continue
        view = out.reshape((-1, 2, 1 << pos) + out.shape[1:])  # axis 1 is bit pos
        zero, one = view[:, 0], view[:, 1]
        view[:, 0], view[:, 1] = (
            (1.0 - p01) * zero + p10 * one, p01 * zero + (1.0 - p10) * one)
    return out
