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

Noisy outcome distributions come from :mod:`qvf.simulator`'s entry points
called with a model as ``noise``.

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
from .simulator import SimulationError, check_size

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
        for label, value in (("t1", self.default_t1), ("t2", self.default_t2)):
            if not value > 0:
                raise NoiseConfigError(f"default {label} must be positive")
        for q, v in list(self.t1.items()) + list(self.t2.items()):
            if not v > 0:
                raise NoiseConfigError(f"t1/t2 for qubit {q} must be positive")
        probs = [
            ("p01", self.default_p01), ("p10", self.default_p10),
            ("depolarizing", self.default_depolarizing),
        ]
        probs += [(f"p01[{q}]", v) for q, v in self.p01.items()]
        probs += [(f"p10[{q}]", v) for q, v in self.p10.items()]
        probs += [(f"depolarizing[{g}]", v) for g, v in self.depolarizing.items()]
        for label, v in probs:
            if not 0.0 <= v <= 1.0:
                raise NoiseConfigError(f"{label} = {v!r} outside [0, 1]")
        durations = [("duration", self.default_duration)]
        durations += [(f"duration[{g}]", v) for g, v in self.duration.items()]
        for label, v in durations:
            if v < 0:
                raise NoiseConfigError(f"{label} must be >= 0")
        for q in set(self.t1) | set(self.t2):
            self._check_pair(self.qubit_t1(q), self.qubit_t2(q), q)
        self._check_pair(self.default_t1, self.default_t2, None)

    @staticmethod
    def _check_pair(t1, t2, qubit):
        if math.isinf(t2):
            return  # unspecified t2: no pure dephasing, any t1 is fine
        if t2 > 2.0 * t1:
            where = "default" if qubit is None else f"qubit {qubit}"
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
    """Split a config section into defaults and per-entity overrides."""
    defaults = {}
    overrides = {k: {} for k in plain_keys}
    for key, raw in section.items():
        try:
            value = float(raw)
        except ValueError:
            raise NoiseConfigError(f"{what} {key} = {raw!r} is not a number") from None
        if key in plain_keys:
            defaults[key] = value
            continue
        entity, dot, sub = key.partition(".")
        if not dot or sub not in plain_keys:
            raise NoiseConfigError(f"unknown {what} key {key!r}")
        overrides[sub][sub_parser(entity)] = value
    return defaults, overrides


def load_noise_config(text: str) -> NoiseModel:
    """Parse an INI noise document; absent keys fall back to ideal values."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise NoiseConfigError(f"malformed noise config: {exc}") from None
    known = {"qubits", "gates"}
    extra = set(cp.sections()) - known
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
    if cp.has_section("qubits"):
        defaults, overrides = _parse_section(
            cp["qubits"], {"t1", "t2", "p01", "p10"}, qubit_key, "qubit")
        for k, v in defaults.items():
            kwargs[f"default_{k}"] = v
        kwargs.update({k: overrides[k] for k in overrides})
    if cp.has_section("gates"):
        defaults, overrides = _parse_section(
            cp["gates"], {"duration", "depolarizing"}, gate_key, "gate")
        for k, v in defaults.items():
            kwargs[f"default_{k}"] = v
        kwargs.update({k: overrides[k] for k in overrides})
    return NoiseModel(**kwargs)


def load_noise_file(path) -> NoiseModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_noise_config(fh.read())


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def amplitude_damping_kraus(gamma: float):
    """{K0 = [[1, 0], [0, sqrt(1-g)]], K1 = [[0, sqrt(g)], [0, 0]]}"""
    return (
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    )


def phase_damping_kraus(lam: float):
    """{K0 = [[1, 0], [0, sqrt(1-l)]], K1 = [[0, 0], [0, sqrt(l)]]}"""
    return (
        np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex),
    )


def depolarizing_kraus(p: float):
    """{sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z}"""
    w = math.sqrt(p / 3.0)
    return (
        math.sqrt(1.0 - p) * np.eye(2, dtype=complex),
        w * X,
        w * Y,
        w * Z,
    )


@lru_cache(maxsize=None)
def _expand_cached(entries: tuple, dim: int, qubits: tuple, n_qubits: int):
    mat = np.array(entries, dtype=complex).reshape(dim, dim)
    n_states = 1 << n_qubits
    idx = np.arange(n_states)
    sub = np.zeros(n_states, dtype=int)
    for a, q in enumerate(qubits):
        sub |= ((idx >> q) & 1) << a
    mask = 0
    for q in qubits:
        mask |= 1 << q
    base = idx & ~mask
    full = np.zeros((n_states, n_states), dtype=complex)
    for col_sub in range(dim):
        cols = base.copy()
        for a, q in enumerate(qubits):
            if (col_sub >> a) & 1:
                cols |= 1 << q
        full[idx, cols] = mat[sub, col_sub]
    return full


def expand_operator(mat: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Lift a 2^k x 2^k operator on ``qubits`` to the full state space."""
    mat = np.asarray(mat, dtype=complex)
    return _expand_cached(
        tuple(mat.reshape(-1)), mat.shape[0], tuple(qubits), n_qubits
    )


@dataclass(frozen=True)
class DensityMatrix:
    """Full 2^n x 2^n state; validation enforces the physicality checks."""

    n_qubits: int
    entries: np.ndarray

    def validate(self):
        rho = self.entries
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > TRACE_TOL:
            raise SimulationError(f"density trace drifted to {trace!r}")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITIAN_TOL:
            raise SimulationError("density matrix is not Hermitian")
        smallest = float(np.linalg.eigvalsh(rho)[0])
        if smallest < EIGENVALUE_FLOOR:
            raise SimulationError(f"negative eigenvalue {smallest!r}")
        return self


def _gate_channels(model: NoiseModel, gate):
    """Kraus sets to apply per target qubit after one gate, identity-free."""
    per_qubit = []
    for q in gate.qubits:
        sets = []
        gamma = model.amplitude_damping_gamma(gate.name, q)
        if gamma > 0.0:
            sets.append(amplitude_damping_kraus(gamma))
        lam = model.phase_damping_lambda(gate.name, q)
        if lam > 0.0:
            sets.append(phase_damping_kraus(lam))
        p = model.gate_depolarizing(gate.name)
        if p > 0.0:
            sets.append(depolarizing_kraus(p))
        per_qubit.append((q, sets))
    return per_qubit


def evolve_density(circuit: Circuit, model: NoiseModel) -> DensityMatrix:
    """Exact noisy evolution of |0...0><0...0| through the circuit."""
    n = circuit.n_qubits
    check_size(n, dims=2)
    n_states = 1 << n
    rho = np.zeros((n_states, n_states), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        full = expand_operator(gate_matrix(gate.name, gate.params), gate.qubits, n)
        rho = full @ rho @ full.conj().T
        for q, kraus_sets in _gate_channels(model, gate):
            for kraus in kraus_sets:
                out = np.zeros_like(rho)
                for k in kraus:
                    kf = expand_operator(k, (q,), n)
                    out += kf @ rho @ kf.conj().T
                rho = out
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise SimulationError(f"trace drifted to {trace!r} after {gate.name}")
    return DensityMatrix(n, rho).validate()


def apply_readout_flips(probs: np.ndarray, model: NoiseModel, measured) -> np.ndarray:
    """Push a marginal probability vector through the readout flip matrices."""
    m = len(measured)
    out = np.asarray(probs, dtype=float).reshape([2] * m)
    for pos, q in enumerate(measured):
        p01, p10 = model.readout(q)
        if p01 == 0.0 and p10 == 0.0:
            continue
        flip = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
        axis = m - 1 - pos  # C-order: last axis is bit 0
        moved = np.moveaxis(out, axis, 0).reshape(2, -1)
        moved = flip @ moved
        out = np.moveaxis(moved.reshape([2] * m), 0, axis)
    return out.reshape(-1)
