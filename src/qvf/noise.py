"""Parametric machine-noise model: configuration, channels and readout flips.

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

This module holds only the model.  Density matrices are evolved by
:mod:`qvf.simulator`, whose functions take a model as ``noise``.

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

from .gates import SIGNATURES, X, Y, Z

US_PER_NS = 1e-3


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

    def superoperator(self, name: str, q: int):
        """The channels after gate ``name`` on qubit ``q`` as one 4x4
        superoperator on flat qubits (q, q + n), or None if they are ideal."""
        return _superoperator(self.amplitude_damping_gamma(name, q),
                              self.phase_damping_lambda(name, q),
                              self.gate_depolarizing(name))


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
