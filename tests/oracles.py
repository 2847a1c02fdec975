"""Independent brute-force reference implementations used by the test suite.

Everything in this module is deliberately written with a different mechanism
than the library under test:

* circuits are evaluated by building the full 2^n x 2^n unitary as an explicit
  product of expanded gate matrices (bit-by-bit index bookkeeping, no tensor
  reshaping, no in-place amplitude updates);
* noisy circuits are evolved as a full 2^n x 2^n density matrix, with every
  gate and Kraus operator expanded the same way and applied as a dense
  ``full @ rho @ full^H`` product (only the noise model's parameter lookups
  are read from the model object);
* metrics are recomputed with a separate fold over the distribution;
* campaign aggregations loop over records one by one;
* record files are written row by row with the ``csv`` module, from the
  documented ``qvf-csv v1`` layout.

Circuits are described structurally as plain tuples so this module never
imports the package: a gate is ``(name, qubits, params)`` with ``qubits`` a
tuple of target indices and ``params`` a tuple of floats (empty for fixed
gates).  State indices are little-endian: bit ``q`` of index ``i`` is
``(i >> q) & 1``.  Output bitstrings put qubit 0 in the leftmost character.
"""

import cmath
import csv
import io
import math

import numpy as np


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic single-qubit rotation.

    [[cos(t/2),            -e^{i lam} sin(t/2)     ],
     [e^{i phi} sin(t/2),   e^{i(phi+lam)} cos(t/2)]]
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


_SQ2 = 1.0 / math.sqrt(2.0)

# Sub-index convention for multi-qubit matrices: bit a of the sub-index is the
# value of qubits[a].  For cx, qubits[0] is the control and qubits[1] the
# target, so the matrix below maps |c=1,t=0> (sub-index 1) to |c=1,t=1>
# (sub-index 3) and vice versa.
_FIXED = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "cx": np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
}


def gate_matrix(name: str, params=()) -> np.ndarray:
    if name == "u":
        return u_matrix(*params)
    return _FIXED[name]


def expand(mat: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Expand a 2^k x 2^k gate matrix to the full 2^n x 2^n space.

    Built entry by entry from the little-endian index decomposition; rows and
    columns agree on every non-target bit.
    """
    n_states = 2 ** n_qubits
    k = len(qubits)
    full = np.zeros((n_states, n_states), dtype=complex)
    for i in range(n_states):
        row_sub = 0
        for a, q in enumerate(qubits):
            row_sub |= ((i >> q) & 1) << a
        base = i
        for q in qubits:
            base &= ~(1 << q)
        for col_sub in range(2 ** k):
            j = base
            for a, q in enumerate(qubits):
                j |= ((col_sub >> a) & 1) << q
            full[i, j] = mat[row_sub, col_sub]
    return full


def circuit_unitary(n_qubits: int, gates) -> np.ndarray:
    """Product of all expanded gate matrices, last gate leftmost."""
    full = np.eye(2 ** n_qubits, dtype=complex)
    for name, qubits, params in gates:
        full = expand(gate_matrix(name, params), qubits, n_qubits) @ full
    return full


def kraus_sets(model, name: str, qubit: int):
    """Kraus sets that follow gate ``name`` on one target, identity-free:
    amplitude damping, phase damping, then depolarizing."""
    gamma = model.amplitude_damping_gamma(name, qubit)
    lam = model.phase_damping_lambda(name, qubit)
    p = model.gate_depolarizing(name)
    sets = []
    if gamma > 0.0:
        sets.append((np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
                     np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)))
    if lam > 0.0:
        sets.append((np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex),
                     np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)))
    if p > 0.0:
        w = math.sqrt(p / 3.0)
        sets.append((math.sqrt(1 - p) * np.eye(2, dtype=complex),
                     w * _FIXED["x"], w * _FIXED["y"], w * _FIXED["z"]))
    return sets


def apply_kraus(rho: np.ndarray, kraus, qubit: int, n_qubits: int) -> np.ndarray:
    """sum_K K rho K^H with every K expanded to the full space."""
    lifted = [expand(k, (qubit,), n_qubits) for k in kraus]
    return sum(k @ rho @ k.conj().T for k in lifted)


def evolve_density(n_qubits: int, gates, model) -> np.ndarray:
    """Noisy 2^n x 2^n density matrix of |0...0> after ``gates``: each gate,
    then the Kraus sets on each of its targets."""
    dim = 2 ** n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for name, qubits, params in gates:
        full = expand(gate_matrix(name, params), qubits, n_qubits)
        rho = full @ rho @ full.conj().T
        for q in qubits:
            for kraus in kraus_sets(model, name, q):
                rho = apply_kraus(rho, kraus, q, n_qubits)
        assert abs(np.trace(rho) - 1.0) < 1e-9, (name, qubits)
    return rho


def bitstring(value: int, width: int) -> str:
    """Little-endian rendering: character p is bit p of ``value``."""
    return "".join("1" if (value >> p) & 1 else "0" for p in range(width))


def exact_distribution(n_qubits: int, gates, measured, tol: float = 1e-14):
    """Output probabilities marginalized onto the measured qubits.

    Returns a dict mapping bitstrings (character p = measured[p], qubit 0
    leftmost when measured is in ascending qubit order) to probabilities.
    """
    state = np.zeros(2 ** n_qubits, dtype=complex)
    state[0] = 1.0
    state = circuit_unitary(n_qubits, gates) @ state
    probs = np.abs(state) ** 2
    out: dict[str, float] = {}
    for i, p in enumerate(probs):
        if p <= tol:
            continue
        key_bits = 0
        for a, q in enumerate(measured):
            key_bits |= ((i >> q) & 1) << a
        key = bitstring(key_bits, len(measured))
        out[key] = out.get(key, 0.0) + float(p)
    return out


def metrics_fold(dist, correct, shots=None):
    """Recompute (pst, p_b, contrast, qvf) by direct folding.

    ``dist`` maps bitstrings to probabilities, or to counts when ``shots`` is
    given.  p_b is the largest mass on any state outside ``correct``.
    """
    total = float(shots) if shots is not None else 1.0
    pa = 0.0
    pb = 0.0
    for state, value in dist.items():
        p = value / total
        if state in correct:
            pa += p
        elif p > pb:
            pb = p
    contrast = (pa - pb) / (pa + pb)
    return pa, pb, contrast, 1.0 - (contrast + 1.0) / 2.0


def insert_fault(gates, gate_index: int, qubit: int, theta: float, phi: float):
    """Copy of ``gates`` with u(theta, phi, 0) added right after one gate."""
    out = list(gates)
    out.insert(gate_index + 1, ("u", (qubit,), (theta, phi, 0.0)))
    return out


# ---------------------------------------------------------------------------
# per-record campaign aggregations
# ---------------------------------------------------------------------------
#
# The record loops the package used before its aggregations ran on column
# arrays.  Records are read by attribute only; a grid is returned as
# (thetas, phis, cells) and an error as ValueError.


def _fault_records(records):
    return [r for r in records if r.site_index >= 0]


def _mean_grid(records, thetas, phis, group):
    sums = np.zeros((len(thetas), len(phis)))
    counts = np.zeros_like(sums)
    ti = {t: i for i, t in enumerate(thetas)}
    pj = {p: j for j, p in enumerate(phis)}
    for r in records:
        sums[ti[r.theta_deg], pj[r.phi_deg]] += r.qvf
        counts[ti[r.theta_deg], pj[r.phi_deg]] += 1
    if (counts == 0).any():
        raise ValueError(f"empty (theta, phi) cell in group {group!r}")
    return thetas, phis, sums / counts


def aggregate_heatmap(records, grouping="circuit"):
    """Mean-QVF grid of the fault records, or a dict of grids keyed by
    qubit or site index."""
    records = _fault_records(records)
    if not records:
        raise ValueError("no fault records to aggregate")
    thetas = tuple(sorted({r.theta_deg for r in records}))
    phis = tuple(sorted({r.phi_deg for r in records}))
    if grouping == "circuit":
        return _mean_grid(records, thetas, phis, "circuit")
    if grouping not in ("qubit", "site"):
        raise ValueError(f"unknown grouping {grouping!r}")
    attr = "qubit" if grouping == "qubit" else "site_index"
    out = {}
    for key in sorted({getattr(r, attr) for r in records}):
        grp = [r for r in records if getattr(r, attr) == key]
        out[key] = _mean_grid(grp, thetas, phis, f"{grouping}:{key}")
    return out


def timeline(records, theta_deg, phi_deg):
    """Per-qubit (gate_index, qvf) series at one fault, by gate index."""
    picked = [
        r for r in _fault_records(records)
        if r.theta_deg == theta_deg and r.phi_deg == phi_deg
    ]
    if not picked:
        raise ValueError(f"no records at theta={theta_deg}, phi={phi_deg}")
    series = {}
    for r in sorted(picked, key=lambda r: (r.qubit, r.gate_index)):
        series.setdefault(r.qubit, []).append((r.gate_index, r.qvf))
    return series


def histogram_stats(records, bins=50):
    """(mean, stddev, counts, bin_edges) of the fault QVFs on [0, 1]."""
    values = [r.qvf for r in _fault_records(records)]
    if not values:
        raise ValueError("no fault records")
    arr = np.asarray(values)
    counts, edges = np.histogram(arr, bins=bins, range=(0.0, 1.0))
    return (float(arr.mean()), float(arr.std()),
            tuple(int(c) for c in counts), tuple(float(e) for e in edges))


# ---------------------------------------------------------------------------
# record files
# ---------------------------------------------------------------------------

RECORD_COLUMNS = (
    "circuit_id", "site_index", "gate_index", "qubit", "theta_deg",
    "phi_deg", "mode", "shots", "seed", "pst", "p_b", "contrast", "qvf",
    "baseline_qvf", "improved_flag",
)


def _angle_text(value):
    # angles on an integer are written without a decimal point
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def record_csv(rows) -> str:
    """A ``qvf-csv v1`` file of ``rows``: the schema line, the header, then
    one csv row per record, read by attribute.  Floats are written in their
    shortest round-trip form and the improved flag as 0 or 1.  Each row is
    formatted with a CR LF terminator, which quotes a field holding a lone
    CR, as the writer's rows are, and ends in a newline instead."""
    def row_text(fields):
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(fields)
        return line.getvalue()[:-2] + "\n"

    buf = io.StringIO()
    buf.write("# qvf-csv v1\n")
    buf.write(row_text(RECORD_COLUMNS))
    for r in rows:
        buf.write(row_text([
            r.circuit_id, str(r.site_index), str(r.gate_index), str(r.qubit),
            _angle_text(r.theta_deg), _angle_text(r.phi_deg), r.mode,
            str(r.shots), str(r.seed),
            *(repr(float(v)) for v in (r.pst, r.p_b, r.contrast, r.qvf, r.baseline_qvf)),
            "1" if r.improved else "0",
        ]))
    return buf.getvalue()
