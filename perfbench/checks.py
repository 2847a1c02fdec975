"""Output checks for one campaign CSV and the reports made from it.

These run outside the timed region.  They read the CSV with the csv
module, not with ``qvf.records``, and recompute a seeded sample of rows
with references that share no code with the campaign path:

* exact rows: ``oracles.circuit_unitary`` via ``exact_distribution`` and
  ``oracles.metrics_fold``, to 1e-12;
* noisy rows: the brute-force Kraus evolution in ``kraus_ref``;
* sampled rows: a fresh multinomial draw from
  ``SeedSequence([seed, site + 1, grid_index])``.  The draw consumes
  random numbers for every category with nonzero probability, so a
  probability of 1e-33 versus exactly 0 changes every later count; the
  draw therefore uses the per-record probability vector of
  ``qvf.simulator.measured_probabilities``, after checking that vector
  against the oracle to 1e-12.
"""

import csv
import math
import random

import numpy as np

from kraus_ref import noisy_distribution

SCHEMA_LINE = "# qvf-csv v1"
TOL = 1e-12
ROWS_CHECKED = 12


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_csv(path):
    """Header -> column index map and the data rows as string lists."""
    with open(path, newline="", encoding="utf-8") as fh:
        _require(fh.readline().rstrip("\n") == SCHEMA_LINE, f"{path}: bad schema line")
        reader = csv.reader(fh)
        header = next(reader)
        return {name: i for i, name in enumerate(header)}, list(reader)


def grid(step):
    return [(t, p) for t in range(0, 181, step) for p in range(0, 360, step)]


def sites(circuit):
    return [(gi, q) for gi, g in enumerate(circuit.gates) for q in g.qubits]


class CsvCheck:
    """Checks for one campaign CSV of one circuit."""

    def __init__(self, path, circuit, wl, seed, oracles, noise_model):
        self.col, self.rows = read_csv(path)
        self.circuit = circuit
        self.wl = wl  # the workload: mode, shots, grid step, noise flag
        self.seed = seed  # the campaigns' --seed
        self.oracles = oracles
        self.noise_model = noise_model
        self.gates = [(g.name, g.qubits, g.params) for g in circuit.gates]
        self.grid = grid(wl.grid_step)

    def value(self, row, name):
        return row[self.col[name]]

    def floats(self, row):
        return [float(self.value(row, c)) for c in ("pst", "p_b", "contrast", "qvf")]

    # -- structure ---------------------------------------------------------

    def row_count(self):
        expected = len(sites(self.circuit)) * len(self.grid) + 1
        _require(len(self.rows) == expected, f"{len(self.rows)} rows, expected {expected}")
        baselines = [i for i, r in enumerate(self.rows) if int(self.value(r, "site_index")) < 0]
        _require(baselines == [0], f"baseline rows at {baselines}, expected only row 0")

    def canonical_order(self):
        expected = [
            (str(s), str(gi), str(q), str(t), str(p))
            for s, (gi, q) in enumerate(sites(self.circuit))
            for t, p in self.grid
        ]
        got = [
            tuple(self.value(r, c) for c in
                  ("site_index", "gate_index", "qubit", "theta_deg", "phi_deg"))
            for r in self.rows[1:]
        ]
        _require(got == expected, "rows are not in site-major, grid-minor order")
        shots = str(self.wl.shots) if self.wl.mode == "sampled" else "0"
        for r in self.rows:
            _require(
                (self.value(r, "circuit_id"), self.value(r, "mode"),
                 self.value(r, "shots"), self.value(r, "seed"))
                == (self.circuit.name, self.wl.mode, shots, str(self.seed)),
                f"row {r[:9]} has the wrong id, mode, shots or seed",
            )

    def qvf_range(self):
        for r in self.rows:
            v = float(self.value(r, "qvf"))
            _require(0.0 <= v <= 1.0, f"qvf {v!r} outside [0, 1]")

    def noiseless_baseline(self):
        v = float(self.value(self.rows[0], "qvf"))
        _require(abs(v) <= 1e-10, f"noiseless baseline qvf {v!r}")

    def identity_faults(self):
        """Exact noiseless (0, 0) faults equal the baseline bit for bit."""
        keys = ("pst", "p_b", "contrast", "qvf")
        base = [self.value(self.rows[0], k) for k in keys]
        for r in self.rows[1:]:
            if self.value(r, "theta_deg") == "0" and self.value(r, "phi_deg") == "0":
                _require([self.value(r, k) for k in keys] == base,
                         f"identity fault at site {self.value(r, 'site_index')} differs")

    def structural(self):
        """(name, check) pairs that apply to this CSV."""
        out = [("row_count", self.row_count), ("canonical_order", self.canonical_order),
               ("qvf_range", self.qvf_range)]
        if not self.wl.noise:
            out.append(("noiseless_baseline", self.noiseless_baseline))
            if self.wl.mode == "exact":
                out.append(("identity_faults", self.identity_faults))
        return out

    # -- recomputed rows ---------------------------------------------------

    def sample_rows(self, seed):
        """Baseline plus a seeded sample of fault rows."""
        rng = random.Random(f"{seed}:{self.circuit.name}")
        picked = sorted(rng.sample(range(1, len(self.rows)), ROWS_CHECKED))
        return [0] + picked

    def _row_gates(self, row):
        site = int(self.value(row, "site_index"))
        if site < 0:
            return site, 0, self.gates
        t, p = int(self.value(row, "theta_deg")), int(self.value(row, "phi_deg"))
        gates = self.oracles.insert_fault(
            self.gates, int(self.value(row, "gate_index")), int(self.value(row, "qubit")),
            math.radians(t), math.radians(p))
        return site, self.grid.index((t, p)), gates

    def _oracle_vector(self, gates):
        width = len(self.circuit.measured)
        dist = self.oracles.exact_distribution(
            self.circuit.n_qubits, gates, self.circuit.measured, tol=-1.0)
        vec = np.zeros(2 ** width)
        for bits, p in dist.items():
            vec[int(bits[::-1], 2)] = p
        return vec

    def reference(self, row):
        """(pst, p_b, contrast, qvf) recomputed for one row."""
        site, grid_index, gates = self._row_gates(row)
        c = self.circuit
        if self.wl.noise:
            dist = noisy_distribution(self.oracles, c.n_qubits, gates, c.measured,
                                      self.noise_model)
            return self.oracles.metrics_fold(dist, c.correct_states)
        if self.wl.mode == "exact":
            dist = self.oracles.exact_distribution(c.n_qubits, gates, c.measured)
            return self.oracles.metrics_fold(dist, c.correct_states)
        from qvf.circuit import Circuit
        from qvf.simulator import measured_probabilities

        probs = measured_probabilities(Circuit(c.n_qubits, gates, c.measured))
        gap = float(np.max(np.abs(probs - self._oracle_vector(gates))))
        _require(gap <= TOL, f"per-record probabilities off the oracle by {gap:.3g}")
        seq = np.random.SeedSequence([self.seed, site + 1, grid_index])
        pvals = np.clip(probs, 0.0, None)
        counts = np.random.default_rng(seq).multinomial(self.wl.shots, pvals / pvals.sum())
        width = len(c.measured)
        dist = {self.oracles.bitstring(i, width): int(k) for i, k in enumerate(counts) if k}
        return self.oracles.metrics_fold(dist, c.correct_states, shots=self.wl.shots)

    def row_matches(self, index):
        row = self.rows[index]
        want = self.reference(row)
        got = self.floats(row)
        gap = max(abs(a - b) for a, b in zip(want, got))
        _require(gap <= TOL, f"row {index}: off the reference by {gap:.3g}")

    # -- reports -----------------------------------------------------------

    def cell_means(self):
        """(theta, phi) -> mean fault qvf, recomputed from the rows."""
        sums = {}
        for r in self.rows[1:]:
            key = (self.value(r, "theta_deg"), self.value(r, "phi_deg"))
            total, n = sums.get(key, (0.0, 0))
            sums[key] = (total + float(self.value(r, "qvf")), n + 1)
        return {k: total / n for k, (total, n) in sums.items()}

    def heatmap_cells(self, grid_csv_path):
        with open(grid_csv_path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
        _require(lines[0] == ["theta_deg", "phi_deg", "value"], "bad grid csv header")
        means = self.cell_means()
        _require(len(lines) - 1 == len(means), "grid csv cell count differs")
        for t, p, v in lines[1:]:
            _require(abs(float(v) - means[(t, p)]) <= TOL, f"cell ({t}, {p}) mean differs")

    def hist_mean(self, printed):
        """The mean printed by ``report hist`` matches the rows to 6 decimals."""
        values = [float(self.value(r, "qvf")) for r in self.rows[1:]]
        mean = sum(values) / len(values)
        line = next(ln for ln in printed.splitlines() if ln.startswith("mean qvf:"))
        _require(abs(float(line.split()[2]) - mean) <= 5e-7, f"hist mean {line!r}")

    def qubits(self):
        return sorted({int(self.value(r, "qubit")) for r in self.rows[1:]})
