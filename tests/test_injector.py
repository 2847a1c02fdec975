"""Site enumeration, grid construction, and campaign runs."""

import dataclasses
import functools
import gc
import math
import multiprocessing
import re
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import oracles
from support import (
    QvfRecord,
    campaign_csv,
    campaign_rows,
    entries,
    random_circuit,
    random_gates,
    score_entries,
)
from qvf.benchmarks import build_bernstein_vazirani, build_deutsch_jozsa, build_grover
from qvf.circuit import Circuit, bitstring_to_index
from qvf.injector import (
    BLOCK_AMPLITUDES,
    IMPROVED_MARGIN,
    PROB_FLOOR,
    CampaignConfig,
    CampaignError,
    FaultSite,
    SiteBlock,
    campaign_blocks,
    enumerate_sites,
    grid_degrees,
    grid_matrices,
)
from qvf.gates import canonical_u_params, gate_matrix
from qvf.metrics import score
from qvf.noise import NoiseModel, load_noise_config
from qvf import injector, simulator
from qvf.simulator import draw_counts, measured_probabilities


class TestSites:
    def test_order_and_two_qubit_expansion(self):
        c = Circuit(2, [("h", (0,), ()), ("cx", (1, 0), ())], (0, 1))
        sites = enumerate_sites(c)
        assert sites == [FaultSite(0, 0), FaultSite(1, 1), FaultSite(1, 0)]

    def test_benchmark_counts(self):
        assert len(enumerate_sites(build_bernstein_vazirani())) == 13
        assert len(enumerate_sites(build_grover())) == 18


class TestGrid:
    def test_default_grid_shape(self):
        grid = [(math.radians(t), math.radians(p)) for t, p in grid_degrees()]
        assert len(grid) == 312
        assert grid[0] == (0.0, 0.0)
        degs = grid_degrees()
        assert degs[0] == (0, 0)
        assert degs[1] == (0, 15)   # phi is the fast axis
        assert degs[24] == (15, 0)
        assert degs[-1] == (180, 345)
        assert len(degs) == len(grid)
        for (theta, phi), (t, p) in zip(grid, degs):
            assert math.isclose(theta, math.radians(t), abs_tol=1e-12)
            assert math.isclose(phi, math.radians(p), abs_tol=1e-12)

    def test_coarse_grid(self):
        assert len(grid_degrees(90)) == 3 * 4
        assert len(grid_degrees(45)) == 5 * 8

    def test_step_must_divide_360(self):
        with pytest.raises(ValueError):
            grid_degrees(7)
        with pytest.raises(ValueError):
            CampaignConfig(grid_step=50)
        for step in (0, -15):
            with pytest.raises(ValueError):
                grid_degrees(step)
            with pytest.raises(ValueError):
                CampaignConfig(grid_step=step)
            with pytest.raises(ValueError):
                grid_matrices(step)

    @pytest.mark.parametrize("step", [d for d in range(1, 361) if 360 % d == 0])
    def test_matrices_are_u_gates_bit_for_bit(self, step):
        expected = np.array([
            gate_matrix("u", canonical_u_params(math.radians(t), math.radians(p), 0.0))
            for t, p in grid_degrees(step)
        ])
        mats = grid_matrices(step)
        assert mats.shape == expected.shape == (len(grid_degrees(step)), 2, 2)
        assert mats.dtype == complex
        np.testing.assert_array_equal(mats.view(np.int64), expected.view(np.int64))


def faulted(circuit, site, theta, phi):
    """The circuit with a u(theta, phi, 0) fault gate after the site's
    gate, inserted by the oracle's insert_fault."""
    gates = oracles.insert_fault(circuit.gates, site.gate_index, site.qubit, theta, phi)
    return dataclasses.replace(circuit, gates=gates)


class TestInject:
    def test_quarter_turn_after_first_hadamard(self):
        c = build_grover()
        dist = entries(faulted(c, FaultSite(0, 0), math.pi / 4, 0.0))
        summary = score_entries(dist, c.correct_states)
        assert math.isclose(summary.pst, math.cos(math.pi / 8) ** 2, abs_tol=1e-12)
        assert math.isclose(summary.qvf, (1.0 - 2 ** -0.5) / 2.0, abs_tol=1e-12)


class InProcessPool:
    """Stands in for ProcessPoolExecutor: starts no process and maps in order."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def campaign_list(circuit, **kw):
    return campaign_rows(circuit, CampaignConfig(**kw))


def representative_noise():
    text = (resources.files("qvf") / "data" / "representative_noise.ini").read_text()
    return load_noise_config(text)


def with_correct_state(rng, circuit):
    """The circuit, given one random correct state if it has none."""
    if circuit.correct_states is not None:
        return circuit
    width = len(circuit.measured)
    return dataclasses.replace(circuit, correct_states={
        oracles.bitstring(int(rng.integers(2 ** width)), width)
    })


class TestCampaign:
    def test_record_count_and_order(self):
        c = build_grover()
        records = campaign_list(c, grid_step=90)
        assert len(records) == 1 + 18 * 12
        base, faults = records[0], records[1:]
        assert base.site_index == -1
        assert base.qvf == base.baseline_qvf
        assert not base.improved
        degs = grid_degrees(90)
        expected = [
            (s, t, p) for s in range(18) for (t, p) in degs
        ]
        got = [(r.site_index, int(r.theta_deg), int(r.phi_deg)) for r in faults]
        assert got == expected
        sites = enumerate_sites(c)
        for r in faults:
            assert (r.gate_index, r.qubit) == (
                sites[r.site_index].gate_index,
                sites[r.site_index].qubit,
            )
            assert r.circuit_id == "grover-11"
            assert r.mode == "exact"
            assert r.shots == 0
            assert r.improved == (r.qvf < r.baseline_qvf - IMPROVED_MARGIN)

    def test_identity_fault_scores_exactly_baseline(self):
        records = campaign_list(build_grover(), grid_step=90)
        base = records[0]
        identity_rows = [
            r for r in records[1:] if r.theta_deg == 0.0 and r.phi_deg == 0.0
        ]
        assert len(identity_rows) == 18
        for r in identity_rows:
            assert r.qvf == base.qvf
            assert r.pst == base.pst

    def test_baseline_is_the_site_minus_one_block(self):
        c = build_bernstein_vazirani()
        base, _ = campaign_blocks(c, CampaignConfig(grid_step=90))
        assert isinstance(base, SiteBlock)
        assert base.site_index == -1
        assert base.site == FaultSite(-1, -1)
        assert [len(column) for column in base[2:]] == [1] * 5
        assert base.improved.tolist() == [False]
        mask = np.zeros(2 ** len(c.measured), dtype=bool)
        mask[[bitstring_to_index(s) for s in c.correct_states]] = True
        want = score(measured_probabilities(c), mask).qvf
        assert base.qvf.tobytes() == np.array([want]).tobytes()

    def test_pool_has_at_most_one_worker_per_site(self, monkeypatch):
        # a fork-started pool launches all its workers at once; this fake
        # starts no process and maps in order
        sizes = []

        class SerialPool(InProcessPool):
            def __init__(self, max_workers):
                sizes.append(max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        c = build_grover()
        pooled = campaign_csv(c, CampaignConfig(grid_step=90, sites=(0, 1), jobs=64))
        assert sizes == [2]
        assert pooled == campaign_csv(c, CampaignConfig(grid_step=90, sites=(0, 1), jobs=1))

    def test_worker_schedule_is_invisible(self):
        c = build_grover()
        serial = campaign_list(c, grid_step=90)
        parallel = campaign_list(c, grid_step=90, jobs=3)
        assert serial == parallel

    def test_sampled_mode_is_reproducible(self):
        c = build_grover()
        kw = dict(grid_step=90, mode="sampled", shots=256, seed=7)
        a = campaign_list(c, **kw)
        b = campaign_list(c, **kw)
        assert a == b
        shifted = campaign_list(c, grid_step=90, mode="sampled", shots=256, seed=8)
        assert shifted != a
        assert all(r.shots == 256 and r.mode == "sampled" for r in a)

    def test_sampled_jobs_byte_identical(self):
        c = build_grover()
        kw = dict(grid_step=90, mode="sampled", shots=128, seed=3)
        assert campaign_list(c, **kw) == campaign_list(c, **kw, jobs=4)

    def test_site_subset_keeps_indices(self):
        c = build_grover()
        records = campaign_list(c, grid_step=90, sites=(5, 2))
        assert len(records) == 1 + 2 * 12
        assert sorted({r.site_index for r in records[1:]}) == [2, 5]
        assert [r.site_index for r in records[1:13]] == [5] * 12

    def test_site_subset_matches_full_run(self):
        c = build_grover()
        full = campaign_list(c, grid_step=90)
        sub = campaign_list(c, grid_step=90, sites=(4,))
        assert sub[1:] == [r for r in full[1:] if r.site_index == 4]

    def test_out_of_range_site(self):
        with pytest.raises(ValueError, match="^site index 99 out of range$"):
            campaign_list(build_grover(), sites=(99,))

    def test_missing_correct_states(self):
        bare = Circuit(1, [("h", (0,), ())], (0,))
        with pytest.raises(CampaignError):
            campaign_list(bare)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(mode="approximate")
        with pytest.raises(ValueError):
            CampaignConfig(shots=0)
        for mode in ("exact", "sampled"):  # numpy draws take an int64 count
            with pytest.raises(ValueError, match="shots"):
                CampaignConfig(mode=mode, shots=2**63)
        assert CampaignConfig(mode="sampled", shots=2**63 - 1).shots == 2**63 - 1
        with pytest.raises(ValueError):
            CampaignConfig(jobs=0)
        for mode in ("exact", "sampled"):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                CampaignConfig(mode=mode, seed=-1)
            assert CampaignConfig(mode=mode, seed=0).seed == 0

    def test_duplicate_sites_rejected(self):
        # a repeated index would double-weight that site in every aggregate
        with pytest.raises(ValueError, match="duplicate"):
            CampaignConfig(sites=(0, 0))
        with pytest.raises(ValueError, match="duplicate"):
            CampaignConfig(sites=[3, 1, 3])
        assert CampaignConfig(sites=[3, 1]).sites == (3, 1)

    def test_fault_gates_feel_gate_noise(self):
        # an identity fault still adds a noisy gate, so it scores worse
        noise = NoiseModel(default_depolarizing=0.01)
        c = build_grover()
        mask = np.zeros(4, dtype=bool)
        mask[[bitstring_to_index(s) for s in c.correct_states]] = True
        base = score(measured_probabilities(c, noise), mask)
        records = campaign_list(c, grid_step=90, noise=noise)
        identity_rows = [
            r for r in records[1:] if r.theta_deg == 0.0 and r.phi_deg == 0.0
        ]
        assert records[0].qvf == base.qvf
        assert base.qvf > 0.0
        for r in identity_rows:
            assert r.qvf > base.qvf
            assert not r.improved

    def test_no_fault_sites(self):
        # refused before the baseline row, never a baseline-only campaign
        with pytest.raises(ValueError, match="sites is empty"):
            CampaignConfig(sites=())
        bare = Circuit(1, [], (0,), correct_states={"0"})
        with pytest.raises(ValueError, match="no fault sites"):
            campaign_list(bare)
        with pytest.raises(ValueError, match="no fault sites"):
            campaign_blocks(bare, CampaignConfig())


class TestThetaZeroFaults:
    """theta=0 faults are pure phase gates: invisible to a measurement that
    follows directly, but convertible to amplitude error by later gates."""

    PHASE = (0.0, math.pi / 2)

    def qvf_with_fault(self, circuit, site):
        dist = entries(faulted(circuit, site, *self.PHASE))
        return score_entries(dist, circuit.correct_states).qvf

    def test_flat_everywhere_on_basis_preserving_circuit(self):
        c = Circuit(
            2,
            [("x", (0,), ()), ("cx", (0, 1), ()), ("x", (1,), ())],
            (0, 1),
            correct_states={"10"},
        )
        for site in enumerate_sites(c):
            assert self.qvf_with_fault(c, site) == pytest.approx(0.0, abs=1e-12)

    def test_flat_at_final_sites_of_measured_qubits(self):
        c = build_bernstein_vazirani()
        for q in c.measured:
            last = max(gi for gi, g in enumerate(c.gates) if q in g.qubits)
            assert self.qvf_with_fault(c, FaultSite(last, q)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_mid_circuit_phase_becomes_amplitude_error(self):
        # a quarter phase on a data qubit between the two H layers turns
        # into a 50/50 split on that output bit
        c = build_bernstein_vazirani()
        first_h_on_q0 = next(
            gi for gi, g in enumerate(c.gates) if g.name == "h" and g.qubits == (0,)
        )
        got = self.qvf_with_fault(c, FaultSite(first_h_on_q0, 0))
        assert got == pytest.approx(0.5, abs=1e-12)


class TestCorrectMask:
    """Campaign rows against the oracle on random circuits.

    The circuits measure permuted subsets of their qubits and carry one or
    two correct states, so a wrong bitstring-to-index mapping shows up;
    the shipped benchmarks measure (0, 1, 2) in order with one correct
    state and cannot catch it.
    """

    GRID_STEP = 90
    SEED = 11
    SHOTS = 256

    @staticmethod
    def circuits():
        rng = np.random.default_rng(2111)
        out = []
        for _ in range(25):
            c = random_circuit(rng, max_qubits=4, max_gates=8)
            if c.correct_states is None:
                width = len(c.measured)
                size = int(rng.integers(1, min(2, 2 ** width) + 1))
                picked = rng.choice(2 ** width, size=size, replace=False)
                c = dataclasses.replace(
                    c, correct_states={oracles.bitstring(int(i), width) for i in picked}
                )
            out.append(c)
        assert any(len(c.correct_states) == 2 for c in out)
        assert any(list(c.measured) != sorted(c.measured) for c in out)
        assert any(len(c.measured) < c.n_qubits for c in out)
        return out

    @staticmethod
    def row_gates(circuit, r):
        gates = [(g.name, g.qubits, g.params) for g in circuit.gates]
        if r.site_index < 0:
            return gates
        return oracles.insert_fault(
            gates, r.gate_index, r.qubit,
            math.radians(r.theta_deg), math.radians(r.phi_deg),
        )

    @staticmethod
    def assert_row(r, want):
        got = (r.pst, r.p_b, r.contrast, r.qvf)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, (r, want)

    def test_exact_rows_match_oracle(self):
        for c in self.circuits():
            for r in campaign_rows(c, CampaignConfig(grid_step=self.GRID_STEP)):
                dist = oracles.exact_distribution(
                    c.n_qubits, self.row_gates(c, r), c.measured
                )
                self.assert_row(r, oracles.metrics_fold(dist, c.correct_states))

    def test_sampled_rows_match_redraw(self):
        degs = grid_degrees(self.GRID_STEP)
        config = CampaignConfig(
            grid_step=self.GRID_STEP, mode="sampled", shots=self.SHOTS, seed=self.SEED
        )
        for c in self.circuits():
            width = len(c.measured)
            keys = [oracles.bitstring(i, width) for i in range(2 ** width)]
            for r in campaign_rows(c, config):
                dist = oracles.exact_distribution(
                    c.n_qubits, self.row_gates(c, r), c.measured, tol=-1.0
                )
                probs = np.array([dist.get(k, 0.0) for k in keys])
                grid_index = degs.index((int(r.theta_deg), int(r.phi_deg)))
                seq = np.random.SeedSequence([self.SEED, r.site_index + 1, grid_index])
                counts = np.random.default_rng(seq).multinomial(
                    self.SHOTS, probs / probs.sum()
                )
                drawn = dict(zip(keys, counts.tolist()))
                self.assert_row(
                    r, oracles.metrics_fold(drawn, c.correct_states, shots=self.SHOTS)
                )


def assert_same_text(got, want, context):
    """Fail naming the first line that differs.  pytest's own diff of two
    long texts takes minutes, and hypothesis repeats it at every step that
    shrinks a failing case."""
    if got != want:
        pairs = zip_longest(got.split("\n"), want.split("\n"))
        line, (a, b) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"line {line}: got {a!r}, want {b!r}; {context}")


@st.composite
def kernel_cases(draw, max_qubits, max_gates):
    """(circuit, grid step, sites): a random_gates circuit on up to
    ``max_qubits`` qubits measuring a permuted subset of them, with one or
    two correct states and an optional id, a 45 or 90 degree grid, and
    every site (None) or a subset in drawn order."""
    n = draw(st.integers(1, max_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gates = random_gates(rng, n, draw(st.integers(1, max_gates)))
    measured = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    width = len(measured)
    correct = draw(st.sets(st.integers(0, 2**width - 1), min_size=1, max_size=2))
    circuit = Circuit(n, gates, measured,
                      name=draw(st.sampled_from((None, "random", *QUOTED_IDS))),
                      correct_states={oracles.bitstring(i, width) for i in correct})
    n_sites = sum(len(g[1]) for g in gates)
    sites = draw(st.none() | st.lists(st.integers(0, n_sites - 1), min_size=1,
                                      unique=True).map(tuple))
    return circuit, draw(st.sampled_from((45, 90))), sites


def _fixed_kernel_cases():
    """A nine-qubit case whose 15-degree grid needs several column chunks
    per site, and one random circuit under each id that csv must quote."""
    rng = np.random.default_rng(3031)
    # a random rotation on every qubit first, so that each measured
    # outcome sums 32 irregular nonzero amplitudes and the order of
    # the sum shows in the last bits
    spread = [("u", (q,), tuple(rng.uniform(0, 2 * math.pi, 3))) for q in range(9)]
    wide = Circuit(9, spread + random_gates(rng, 9, 14), (4, 0, 7, 2),
                   correct_states={"0110"})
    assert len(grid_degrees(15)) * 2 ** wide.n_qubits > 2 * BLOCK_AMPLITUDES
    quoted = []
    for cid in QUOTED_IDS:
        circuit = with_correct_state(rng, random_circuit(rng, max_qubits=4, max_gates=8))
        quoted.append((dataclasses.replace(circuit, name=cid), 90, None))
    return (wide, 15, (3, 11)), quoted


#: circuit ids that csv must quote
QUOTED_IDS = ("a,b", 'say "hi"', "x\ny", "a\rb")
WIDE_CASE, QUOTED_CASES = _fixed_kernel_cases()

#: the packaged model, and one with per-qubit and per-gate overrides
KERNEL_NOISE = (
    representative_noise(),
    NoiseModel(
        default_t1=60.0, default_t2=50.0, default_duration=35.0,
        default_depolarizing=0.002, default_p01=0.02, default_p10=0.04,
        t1={0: 20.0, 2: 45.0}, t2={0: 15.0}, p01={1: 0.1}, p10={3: 0.0},
        duration={"cx": 300.0, "u": 80.0, "h": 0.0},
        depolarizing={"cx": 0.02, "t": 0.0},
    ),
)

#: drawn examples per kernel property test and mode, on top of the fixed
#: cases; a noisy example costs about twice a noiseless one
KERNEL_EXAMPLES = 15
NOISY_KERNEL_EXAMPLES = 10


class TestBlockKernel:
    """The site-batched campaign kernel against a per-record reference.

    The reference re-simulates one faulted circuit per record (a state
    vector, or a density matrix under noise), as the campaign runner did
    before it swept a site's grid as one block, and writes the rows with
    ``oracles.record_csv``.  Every amplitude undergoes the same
    floating-point operations on both routes, so the CSV text that
    BlockWriter writes must match byte for byte; a drift of one ulp changes
    the repr-formatted values or, in sampled mode, the draws.
    """

    @staticmethod
    def reference_csv(circuit, config):
        mask = np.zeros(2 ** len(circuit.measured), dtype=bool)
        mask[[bitstring_to_index(s) for s in circuit.correct_states]] = True
        circuit_id = circuit.name or "circuit"

        def row(site_index, site, angles, faulted, grid_index, baseline_qvf):
            probs = measured_probabilities(faulted, config.noise)
            if config.mode == "sampled":
                seq = np.random.SeedSequence([config.seed, site_index + 1, grid_index])
                probs = draw_counts(probs, config.shots, seq) / config.shots
            else:
                probs = np.where(probs > PROB_FLOOR, probs, 0.0)
            summary = score(probs, mask)
            if baseline_qvf is None:
                baseline_qvf = summary.qvf
            return QvfRecord(
                circuit_id, site_index,
                site.gate_index if site else -1, site.qubit if site else -1,
                float(angles[0]), float(angles[1]), config.mode,
                config.shots if config.mode == "sampled" else 0, config.seed,
                summary.pst, summary.p_b, summary.contrast, summary.qvf,
                baseline_qvf, summary.qvf < baseline_qvf - IMPROVED_MARGIN,
            )

        base = row(-1, None, (0, 0), circuit, 0, None)
        rows = [base]
        sites = enumerate_sites(circuit)
        picked = range(len(sites)) if config.sites is None else config.sites
        for site_index in picked:
            site = sites[site_index]
            for grid_index, (t, p) in enumerate(grid_degrees(config.grid_step)):
                fault = faulted(circuit, site, math.radians(t), math.radians(p))
                rows.append(row(site_index, site, (t, p), fault, grid_index, base.qvf))
        return oracles.record_csv(rows)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @settings(max_examples=KERNEL_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(kernel_cases(max_qubits=6, max_gates=10))
    @example(WIDE_CASE)
    @example(QUOTED_CASES[0])
    @example(QUOTED_CASES[1])
    @example(QUOTED_CASES[2])
    @example(QUOTED_CASES[3])
    def test_csv_matches_per_record_reference(self, mode, case):
        circuit, step, sites = case
        config = CampaignConfig(grid_step=step, mode=mode, shots=200, seed=17, sites=sites)
        want = self.reference_csv(circuit, config)
        for jobs in (1, 2):
            config = dataclasses.replace(config, jobs=jobs)
            assert_same_text(campaign_csv(circuit, config), want, (circuit, config))

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @settings(max_examples=NOISY_KERNEL_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(kernel_cases(max_qubits=4, max_gates=8), st.sampled_from(KERNEL_NOISE))
    @example(QUOTED_CASES[0], KERNEL_NOISE[0])
    @example(QUOTED_CASES[1], KERNEL_NOISE[1])
    @example(QUOTED_CASES[2], KERNEL_NOISE[0])
    @example(QUOTED_CASES[3], KERNEL_NOISE[1])
    def test_noisy_csv_matches_per_record_reference(self, mode, case, noise):
        # flat density blocks against one final_state per record, whose
        # own agreement with the dense oracle test_noise checks to 1e-12
        circuit, step, sites = case
        config = CampaignConfig(grid_step=step, mode=mode, shots=200, seed=17,
                                sites=sites, noise=noise)
        assert_same_text(campaign_csv(circuit, config), self.reference_csv(circuit, config),
                         (circuit, config))


class TestBlockDraw:
    """The sampled mode's one draw loop per column block against numpy's
    per-record ``default_rng(SeedSequence([seed, site_index + 1, grid_index]))``."""

    #: one to three entropy words per seed, and 2^32 - 1 at the edge of one
    SEEDS = (0, 5, 2**32 - 1, 2**32 + 3, 2**64, 2**70 + 11)
    SITES = (-1, 0, 3, 40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        for site_index in self.SITES:
            for start in (0, 397):
                got = injector._seed_words(seed, site_index, start, 6)
                want = [np.random.SeedSequence([seed, site_index + 1, start + j])
                        .generate_state(4, np.uint64) for j in range(6)]
                assert got.dtype == np.uint64
                assert (got == np.array(want)).all(), (site_index, start)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_match_per_record_generators(self, seed):
        rng = np.random.default_rng(seed % 997)
        probs = rng.random((8, 5))
        probs /= probs.sum(axis=0)
        config = CampaignConfig(mode="sampled", shots=300, seed=seed)
        for site_index in self.SITES:
            for start in (0, 397):
                got = injector._mode_probs(probs, config, site_index, start)
                for j in range(5):
                    col = np.ascontiguousarray(probs[:, j])
                    seq = np.random.SeedSequence([seed, site_index + 1, start + j])
                    counts = np.random.default_rng(seq).multinomial(300, col / col.sum())
                    assert (got[:, j] == counts / 300).all(), (site_index, start, j)

    def test_block_sums_each_column_as_a_vector_does(self):
        # exact circuits often put exactly half the mass on one outcome; a
        # one-ulp change in a column total then moves that probability across
        # 0.5, where numpy's binomial draw switches branch.  Summing this block
        # down its strided axis changes about half the totals and the counts
        # of 96 of its 312 columns; random columns without the exact half
        # draw the same counts either way
        rng = np.random.default_rng(1812)
        probs = rng.random((16, 312))
        probs[1:] *= 0.5 / probs[1:].sum(axis=0)
        probs[0] = 0.5
        config = CampaignConfig(mode="sampled", shots=1024, seed=5)
        got = injector._mode_probs(probs, config, 2, 0)
        for j in range(312):
            want = draw_counts(probs[:, j], 1024, np.random.SeedSequence([5, 3, j]))
            assert (got[:, j] == want / 1024).all(), j

    def test_chunked_campaign_matches_per_record_reference(self, monkeypatch):
        # grover's 4 amplitudes in chunks of 7 columns: each site's 40-point
        # grid draws in 6 blocks, all but the first at start > 0
        monkeypatch.setattr(injector, "BLOCK_AMPLITUDES", 4 * 7)
        circuit = build_grover()
        config = CampaignConfig(grid_step=45, mode="sampled", shots=500,
                                seed=2**70 + 11, jobs=1)
        assert_same_text(campaign_csv(circuit, config),
                         TestBlockKernel.reference_csv(circuit, config), config)


class TestImprovedFlag:
    def test_rounding_ties_are_not_improvements(self):
        # under noise many bv faults tie the baseline to the last bits; only
        # dj has faults that really score below it
        noise = representative_noise()
        bv = campaign_list(build_bernstein_vazirani(), noise=noise)[1:]
        assert any(abs(r.qvf - r.baseline_qvf) <= IMPROVED_MARGIN for r in bv)
        assert sum(r.improved for r in bv) == 0
        dj = campaign_list(build_deutsch_jozsa(), noise=noise)[1:]
        assert sum(r.improved for r in dj) > 0


class TestNoisyKernelWork:
    def test_apply_matrix_calls_on_dj(self, monkeypatch):
        # one fused step per 1-qubit gate and four per cx: 12 + 3 * 4 = 24
        # steps a circuit, so 18 sites x (24 + the fault's 1) + the baseline's
        # 24 on a one-chunk 30-degree grid; three steps per 1-qubit gate
        # made it 966
        calls = []
        real = simulator.apply_matrix

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(simulator, "apply_matrix", counted)
        config = CampaignConfig(grid_step=30, noise=representative_noise())
        _, blocks = campaign_blocks(build_deutsch_jozsa(), config)
        assert len(list(blocks)) == 18
        assert len(calls) <= 474

    def test_each_step_is_compiled_once(self, monkeypatch):
        # grover's 16 gates (14 on one qubit) compile once, baseline included,
        # and its 18 sites on 2 qubits fuse one fault stack per qubit that
        # each of the 4 column chunks slices; compiling the baseline apart and
        # a fault stack per site and chunk would make it 2, 104 and 100 calls
        calls = Counter()

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for module in (simulator, injector):
            for name in ("compile_steps", "gate_steps"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(simulator, "_fused", counting("_fused", simulator._fused))
        config = CampaignConfig(grid_step=2, noise=representative_noise(), jobs=1)
        _, blocks = campaign_blocks(build_grover(), config)
        assert len(list(blocks)) == 18
        assert calls == {"compile_steps": 1, "gate_steps": 18, "_fused": 16}


def block_bits(block):
    """A SiteBlock as its site and the bytes of each array, so equal means
    bit for bit."""
    return (block.site_index, block.site) + tuple(a.tobytes() for a in block[2:])


class TestPrefixMemo:
    """A serial sweep evolves each site's fault-free prefix on from the last
    site's, not from |0...0> per site; a pooled site keeps nothing."""

    def test_serial_campaign_applies_each_prefix_step_once(self, monkeypatch):
        # single-column calls are prefix steps: the baseline and the sites
        # evolve (2^n, G) blocks.  From |0...0> per site dj's 18 sites made 234
        calls = []
        real = simulator.apply_matrix

        def counted(state, *args):
            calls.append(state.ndim)
            return real(state, *args)

        monkeypatch.setattr(simulator, "apply_matrix", counted)
        circuit, noise = build_deutsch_jozsa(), representative_noise()
        config = CampaignConfig(grid_step=30, noise=noise, jobs=1)
        _, blocks = campaign_blocks(circuit, config)
        assert len(list(blocks)) == 18
        program = simulator.compile_steps(circuit.gates, circuit.n_qubits, noise)
        assert 0 < calls.count(1) <= sum(len(steps) for _, steps in program)

    def test_interleaved_campaigns_give_what_each_gives_alone(self):
        configs = [(build_deutsch_jozsa(), CampaignConfig(grid_step=45, noise=representative_noise())),
                   (build_deutsch_jozsa(), CampaignConfig(grid_step=45)),
                   (build_grover(), CampaignConfig(grid_step=45))]
        alone = [[block_bits(b) for b in campaign_blocks(c, config)[1]] for c, config in configs]
        iterators = [campaign_blocks(c, config)[1] for c, config in configs]
        interleaved = [[] for _ in configs]
        for step in zip_longest(*iterators):
            for got, block in zip(interleaved, step):
                if block is not None:
                    got.append(block_bits(block))
        assert interleaved == alone

    @staticmethod
    def prefix_states(monkeypatch):
        """Record every single-column state ``injector`` evolves (the prefixes)."""
        states = []
        real = injector.evolve

        def recorded(state, *args):
            out = real(state, *args)
            if state.ndim == 1:
                states.append(state)
            return out

        monkeypatch.setattr(injector, "evolve", recorded)
        return states

    def test_a_returned_prefix_never_changes(self, monkeypatch):
        # a later site evolves a copy, so an earlier prefix (the kept state
        # until then) keeps its bits
        states = self.prefix_states(monkeypatch)
        _, blocks = campaign_blocks(build_grover(), CampaignConfig(grid_step=45, jobs=1))
        handed = []
        for _ in blocks:
            handed += [(state, state.tobytes()) for state in states[len(handed):]]
        assert len(handed) == 19  # the baseline and 18 sites
        assert all(state.tobytes() == bits for state, bits in handed)
        assert len({bits for _, bits in handed}) > 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_finished_campaign_keeps_no_prefix(self, monkeypatch, jobs):
        # a kept state is as large as the campaign's states (16 MiB at 20
        # qubits), so it goes when the last block has been handed out.  The
        # pool maps in this process, so its prefixes are seen here too
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        states = self.prefix_states(monkeypatch)
        refs = []
        _, blocks = campaign_blocks(build_grover(), CampaignConfig(grid_step=45, jobs=jobs))
        for _ in blocks:
            refs += map(weakref.ref, states)
            states.clear()
            gc.collect()
            # only the serial sweep keeps a state: the one it just evolved
            assert [r for r in refs if r() is not None] == ([refs[-1]] if jobs == 1 else [])
        assert len(refs) == 19
        gc.collect()
        assert all(r() is None for r in refs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_descending_sites_match_the_full_run(self, jobs):
        # site 3 comes after site 12, so its prefix restarts from |0...0>
        c, noise = build_deutsch_jozsa(), representative_noise()
        full = {b.site_index: block_bits(b)
                for b in campaign_blocks(c, CampaignConfig(grid_step=45, noise=noise))[1]}
        config = CampaignConfig(grid_step=45, noise=noise, sites=(12, 3), jobs=jobs)
        assert [block_bits(b) for b in campaign_blocks(c, config)[1]] == [full[12], full[3]]


class TestFailureReport:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_prefix_failure_names_the_site_alone(self, monkeypatch, jobs):
        # with no trace tolerance a noisy evolve fails at its first gate.  The
        # baseline is scored on the call, so the first failure is site 7's
        # single-column prefix, which has no grid point to name.  A forked
        # pool's workers see the patched tolerance
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        c = build_deutsch_jozsa()
        config = CampaignConfig(grid_step=90, noise=representative_noise(), sites=(7, 2), jobs=jobs)
        _, blocks = campaign_blocks(c, config)
        monkeypatch.setattr(simulator, "TRACE_TOL", -1.0)
        site = enumerate_sites(c)[7]
        with pytest.raises(CampaignError) as info:
            next(blocks)
        assert re.fullmatch(
            rf"simulation failed at site 7 \(gate {site.gate_index}, qubit {site.qubit}\): "
            rf"trace drifted to \S+ after {c.gates[0].name}", str(info.value))

    def test_campaign_error_names_the_first_failing_grid_point(self, monkeypatch):
        # damping after x only: the final state is singular exactly when the
        # fault after h has turned |+> into |1>, at theta 90, phi 0 (grid
        # index 4, the second column of the second three-column chunk)
        noise = NoiseModel(default_t1=1.0, duration={"x": 1000.0 * math.log(2)})
        c = Circuit(1, [("h", (0,), ()), ("x", (0,), ())], (0,), correct_states={"0"})
        monkeypatch.setattr("qvf.simulator.EIGENVALUE_FLOOR", 1e-3)
        monkeypatch.setattr("qvf.injector.BLOCK_AMPLITUDES", 3 * 4)
        with pytest.raises(
            CampaignError,
            match=r"site 0 \(gate 0, qubit 0\) at theta 90, phi 0: negative eigenvalue",
        ):
            campaign_list(c, grid_step=90, noise=noise)
