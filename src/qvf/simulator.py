"""Measured-outcome probabilities of a circuit, with or without noise.

Amplitudes are stored in a dense complex vector of length 2^n with
little-endian indexing (bit q of index i = (i >> q) & 1).  Gates are
applied with vectorized index arithmetic: for each gate the basis indices
are split into groups that agree on every non-target bit, and the 2x2 or
4x4 matrix mixes the group members in place.  The same kernels take a
(2^n, G) block of G state columns, since they index axis 0 only; each
column then undergoes exactly the floating-point operations it would as
a lone vector.  States beyond :data:`MAX_QUBITS` are refused with a
:class:`SimulationError` before anything is allocated.

Every function that builds, evolves, checks or reads a state takes
``noise``, None or a :class:`qvf.noise.NoiseModel`, and that argument
alone picks the state kind: an amplitude vector without a model, a
density matrix with one.  Density matrices are stored flat: rho[r, c] is
entry r * 2^n + c of a 4^n vector, so row bit q is flat qubit q + n and
column bit q is flat qubit q.  A 1-qubit gate U on qubit q and the
channels after it are one step: the 4x4 map S kron(U, conj(U)) on flat
qubits (q, q + n), where S = sum_K kron(K, K*) is the channels'
superoperator and sub-index bit 1 is the row bit.  A 2-qubit gate U on
qubits Q is U on flat qubits Q + n, then conj(U) on flat qubits Q, then
S on (q, q + n) for each target q.  Every step runs on
:func:`apply_matrix` over 2n qubits, and a (4^n, G) block of flat
matrices takes the same steps, one per column.  Each step is compiled
once to its nonzero terms per row, where a 1 moves an amplitude with no
product and a row of the identity has none, so cx and a noiseless x
only move amplitudes; a row's later terms are summed into its first in
place.  Compiled and dense steps differ only in the sign of a zero
entry, since a signed zero never changes a nonzero sum or product, and
no readout sees that sign: amplitudes are squared, and a rho's diagonal
is summed onto +0.0.  The Hermitian check reads one triangle of rho,
diagonal included: |a - conj(b)| and |b - conj(a)| differ only in the
signs of their parts, so it finds the full check's largest value.  The
eigenvalue check is screened: one batched Cholesky factorisation clears
a block whose every column is safely above the floor, and only a block
it cannot clear goes to ``eigvalsh``, which decides as unscreened.

A run is :func:`initial_state`, :func:`compile_steps`, :func:`evolve`,
:func:`check_state` and :func:`readout`; :func:`final_state` chains the
first four for one circuit and :func:`measured_probabilities` adds the
readout.  Every distribution is the latter's probability vector, indexed
like :func:`qvf.circuit.bitstring_to_index`; :func:`draw_counts` is the one
seeded multinomial draw from it.

>>> from .circuit import Circuit
>>> measured_probabilities(Circuit(1, [("h", (0,), ())], (0,)))
array([0.5, 0.5])
"""

from functools import lru_cache

import numpy as np

from .circuit import Circuit
from .gates import gate_matrix
from .noise import apply_readout_flips

NORM_TOL = 1e-10
TRACE_TOL = 1e-9
HERMITIAN_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8


class SimulationError(RuntimeError):
    """Numerical invariant broken; ``column`` is the first failing column
    of a state block, else None."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


def require(*checks):
    """Raise SimulationError unless every ``(ok, message, values)`` check
    holds.  ``ok`` and ``values`` are scalars or per-column arrays; for
    arrays the error names the first column that fails any check, with the
    message of the first check it fails, formatted with the failing value."""
    oks = [np.asarray(ok) for ok, _, _ in checks]
    everywhere = np.logical_and.reduce(oks)
    if everywhere.all():
        return
    column = int(np.argmin(everywhere)) if everywhere.ndim else None
    at = () if column is None else column
    _, message, values = next(c for c, ok in zip(checks, oks) if not ok[at])
    raise SimulationError(message.format(np.asarray(values)[at].item()), column)


#: largest state a simulation may allocate, in qubits of a state vector
#: (2^20 complex entries, 16 MiB); a density matrix holds 4^n entries, so
#: noisy runs stop at MAX_QUBITS // 2
MAX_QUBITS = 20


def initial_state(n_qubits: int, noise=None) -> np.ndarray:
    """|0...0> as a 2^n amplitude vector, or under ``noise`` |0...0><0...0|
    as a flat 4^n rho; a state beyond the budget is refused first."""
    dims = 1 if noise is None else 2
    if n_qubits * dims > MAX_QUBITS:
        raise SimulationError(
            f"{n_qubits} qubits exceed the simulator's limit of "
            f"{MAX_QUBITS // dims} for a {'density matrix' if dims > 1 else 'state vector'}"
        )
    state = np.zeros(2 ** (n_qubits * dims), dtype=complex)
    state[0] = 1.0
    return state


@lru_cache(maxsize=32)  # an entry holds 2^n indices, 8 MiB at MAX_QUBITS
def _group_indices(n_qubits: int, targets: tuple):
    """Gather/scatter indices of a matrix on ``targets``: one array per
    sub-index a, the basis indices of each group's member whose target bits
    spell a (bit k of a is ``targets[k]``), in ascending order.

    The group bases (every target bit 0) come from counting with a zero bit
    opened at each target, so a miss costs a few integer passes over 2^n,
    no scan of all 2^n basis indices per target."""
    base = np.arange(2 ** (n_qubits - len(targets)))
    for q in sorted(targets):  # bits q and up move up one
        base += base & -(1 << q)
    offs = [0]
    for q in targets:
        offs += [o + (1 << q) for o in offs]
    return tuple(base + o for o in offs)


def apply_matrix(state: np.ndarray, n_qubits: int, mat, qubits) -> np.ndarray:
    """Apply a 2^k x 2^k matrix on ``qubits`` in place and return the state.

    ``state`` is a 2^n vector or a (2^n, G) block; ``mat`` is a step's
    terms (:func:`_terms`), or an array whose every entry is a term: a
    d x d matrix or a (G, d, d) stack, one matrix per block column.  Row
    r's sub-block becomes the sum of its terms, coefficient times column
    sub-block, in column order; one with no terms stays.  Sub-index bit a
    of the matrix is the value of ``qubits[a]``.  A row's later products
    go to one reused buffer and sum into its first in place; a row that
    starts with a move sums first into a new block, not the shared column."""
    index = _group_indices(n_qubits, tuple(qubits))
    if isinstance(mat, np.ndarray):
        mat = [[(c, mat[..., r, c]) for c in range(len(index))] for r in range(len(index))]
    amps = {col: state[index[col]] for col in {col for terms in mat for col, _ in terms}}
    tmp = None
    for i, terms in zip(index, mat):
        acc = None
        for col, coef in terms:
            term = amps[col]
            if acc is None:
                acc, shared = (term, True) if coef is None else (coef * term, False)
                continue
            if coef is not None:
                term = tmp = np.multiply(coef, term, out=tmp)
            acc = acc + term if shared else np.add(acc, term, out=acc)
            shared = False
        if acc is not None:
            state[i] = acc
    return state


def _fused(mat: np.ndarray, sup) -> np.ndarray:
    """``sup @ kron(mat, mat.conj())``, a 1-qubit gate and then its channels
    as one 4x4 map on flat qubits (q, q + n), for a 2x2 matrix or a
    (G, 2, 2) stack.  Elementwise products and sums in a fixed order build
    it, so each matrix of a stack gets the bits it gets alone."""
    kron = mat[..., :, None, :, None] * mat.conj()[..., None, :, None, :]
    kron = kron.reshape(mat.shape[:-2] + (4, 4))
    if sup is None:
        return kron
    out = sup[:, 0, None] * kron[..., 0, None, :]
    for k in range(1, 4):
        out = out + sup[:, k, None] * kron[..., k, None, :]
    return out


def _terms(mat: np.ndarray):
    """A d x d step as per row its nonzero (column, coefficient) terms in
    column order, all d for a row of zeros; a coefficient of exactly 1 is
    None, a move with no product, and a row of the identity has no terms."""
    rows = [[(c, None if v == 1 else v) for c, v in enumerate(row) if v != 0]
            or list(enumerate(row)) for row in mat.tolist()]
    return tuple(() if terms == [(r, None)] else tuple(terms) for r, terms in enumerate(rows))


def gate_steps(name: str, mat: np.ndarray, qubits, n_qubits: int, noise=None):
    """(name, steps) taking a state through one gate: the one (matrix,
    qubits) step for a state vector.  Under ``noise``, for a flat rho, a
    1-qubit gate is one fused 4x4 step (:func:`_fused`); a wider gate is
    ``mat`` on the row bits, its conjugate on the column bits and one
    channel superoperator per target.  ``mat`` may be a (G, d, d) stack,
    one matrix per block column; any other step is compiled to its terms
    (:func:`_terms`), so cx and a noiseless x only move amplitudes."""
    if noise is None:
        steps = [(mat, tuple(qubits))]
    elif len(qubits) == 1:
        (q,) = qubits
        steps = [(_fused(mat, noise.superoperator(name, q)), (q, q + n_qubits))]
    else:
        steps = [(mat, tuple(q + n_qubits for q in qubits)), (mat.conj(), tuple(qubits))]
        for q in qubits:
            sup = noise.superoperator(name, q)
            if sup is not None:
                steps.append((sup, (q, q + n_qubits)))
    return name, [(_terms(m) if m.ndim == 2 else m, qs) for m, qs in steps]


def compile_steps(gates, n_qubits: int, noise=None):
    """:func:`gate_steps` for every gate of a circuit, in order."""
    return [
        gate_steps(g.name, gate_matrix(g.name, g.params), g.qubits, n_qubits, noise)
        for g in gates
    ]


@lru_cache(maxsize=MAX_QUBITS // 2 + 1)  # every size a density matrix may have
def _diagonal(n_qubits: int) -> np.ndarray:
    """Flat indices of the diagonal entries rho[i, i]."""
    return np.arange(1 << n_qubits) * ((1 << n_qubits) + 1)


@lru_cache(maxsize=MAX_QUBITS // 2 + 1)  # 2 x d(d+1)/2 indices, 8 MiB at MAX_QUBITS // 2
def _triangle(n_qubits: int):
    """Flat indices of rho[i, j] and of its mirror rho[j, i], i <= j."""
    i, j = np.triu_indices(1 << n_qubits)
    return (i << n_qubits) + j, (j << n_qubits) + i


def evolve(state: np.ndarray, n_qubits: int, program, noise=None) -> np.ndarray:
    """Run a state (or a block of state columns) through compiled gates in
    place; under ``noise`` every column's trace is checked after each gate."""
    width = n_qubits if noise is None else 2 * n_qubits
    for name, steps in program:
        for mat, qubits in steps:
            apply_matrix(state, width, mat, qubits)
        if noise is not None:
            trace = state[_diagonal(n_qubits)].sum(axis=0).real
            require((np.abs(trace - 1.0) <= TRACE_TOL,
                     f"trace drifted to {{!r}} after {name}", trace))
    return state


def check_state(state: np.ndarray, n_qubits: int, noise=None):
    """Raise SimulationError unless the state (or every block column) is
    physical: unit norm for amplitudes; under ``noise``, for a flat rho,
    unit trace, Hermitian and no eigenvalue below EIGENVALUE_FLOOR."""
    if noise is None:
        drift = np.abs(np.sum(np.abs(state) ** 2, axis=0) - 1.0)
        require((drift <= NORM_TOL, "state norm drifted by {!r}", drift))
        return
    d = 1 << n_qubits
    mats = state.reshape(d, d, -1).transpose(2, 0, 1)
    trace = np.trace(mats, axis1=1, axis2=2)
    flat, (upper, lower) = state.reshape(d * d, -1), _triangle(n_qubits)
    skew = np.max(np.abs(flat[upper] - flat[lower].conj()), axis=0)
    checks = [(np.abs(trace - 1.0) <= TRACE_TOL, "density trace drifted to {!r}", trace),
              (skew <= HERMITIAN_TOL, "density matrix is not Hermitian (off by {!r})", skew)]
    if not _clears_floor(mats):
        smallest = np.linalg.eigvalsh(mats)[:, 0]
        checks.append((smallest >= EIGENVALUE_FLOOR, "negative eigenvalue {!r}", smallest))
    if state.ndim < 2:  # a lone matrix has no column to name
        checks = [(ok[0], message, values[0]) for ok, message, values in checks]
    require(*checks)


def _clears_floor(mats: np.ndarray) -> bool:
    """True when every d x d matrix's smallest eigenvalue is above
    EIGENVALUE_FLOOR plus a margin: mats minus that times I has a finite
    Cholesky factor.  The margin, max(1e-12, 4 d^2 eps), covers Cholesky's
    backward error, at most d (d + 1) eps / 2 times the norm, which is about
    1 for a unit-trace matrix, and eigvalsh's smaller one, so a True here is
    one eigvalsh would agree with; both read the lower triangle only."""
    d = mats.shape[-1]
    margin = max(1e-12, 4 * d * d * np.finfo(float).eps)
    shift = (EIGENVALUE_FLOOR + margin) * np.eye(d)
    try:
        return bool(np.isfinite(np.linalg.cholesky(mats - shift)).all())
    except np.linalg.LinAlgError:
        return False


def final_state(circuit: Circuit, noise=None) -> np.ndarray:
    """The checked state after the circuit runs on |0...0>: amplitudes, or
    under ``noise`` a flat rho (``reshape(2**n, 2**n)`` gives the matrix)."""
    n = circuit.n_qubits
    state = evolve(initial_state(n, noise), n, compile_steps(circuit.gates, n, noise), noise)
    check_state(state, n, noise)
    return state


@lru_cache(maxsize=8)  # an entry holds 2^n indices, 8 MiB at MAX_QUBITS
def _marginal_members(n_qubits: int, measured: tuple) -> np.ndarray:
    """The basis indices by measured-qubit index k, one column per k: row j
    holds every k's j-th smallest basis index among those whose measured
    qubits spell k."""
    idx = np.arange(2 ** n_qubits)
    keys = np.zeros_like(idx)
    for pos, q in enumerate(measured):
        keys |= ((idx >> q) & 1) << pos
    return np.argsort(keys, kind="stable").reshape(2 ** len(measured), -1).T.copy()


def readout(state: np.ndarray, n_qubits: int, measured, noise=None) -> np.ndarray:
    """Probabilities over the measured qubits of a state, or of each column
    of a block: the basis probabilities, |amplitude|^2 or under ``noise`` the
    clipped diagonal of rho, summed from zero onto the measured-qubit
    indices in basis-index order, as ``np.add.at`` sums them; under
    ``noise`` then through the readout flips."""
    if noise is None:
        probs = np.abs(state) ** 2
    else:
        probs = np.clip(state[_diagonal(n_qubits)].real, 0.0, None)
    members = probs[_marginal_members(n_qubits, tuple(measured))]
    # a reduction over the leading axis adds the rows one at a time onto the
    # initial zero, with no pairwise regrouping, because each row holds
    # 2^m >= 2 entries: every circuit measures a qubit
    out = np.add.reduce(members, axis=0, initial=0.0)
    return out if noise is None else apply_readout_flips(out, noise, measured)


def measured_probabilities(circuit: Circuit, noise=None) -> np.ndarray:
    """Probability vector over measured-qubit indices (exact, no RNG).

    With ``noise``, every gate is followed by the model's channels and the
    vector passes through its readout flips."""
    return readout(final_state(circuit, noise), circuit.n_qubits, circuit.measured, noise)


def draw_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial shot counts per index of a probability vector.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts,
    including a SeedSequence; equal inputs give equal counts.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    pvals = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    total = pvals.sum()
    require((abs(total - 1.0) <= NORM_TOL, "probabilities sum to {!r}", total))
    return np.random.default_rng(seed).multinomial(shots, pvals / total)
