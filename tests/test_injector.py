"""Site enumeration, grid construction, injection, and campaign runs."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from support import random_circuit, random_gates
from qvf.benchmarks import build_bernstein_vazirani, build_grover
from qvf.circuit import Circuit, bitstring_to_index
from qvf.injector import (
    BLOCK_AMPLITUDES,
    CampaignConfig,
    CampaignError,
    FaultParams,
    FaultSite,
    FaultSpec,
    baseline_record,
    build_grid,
    enumerate_sites,
    grid_degrees,
    inject,
    run_campaign,
)
from qvf.metrics import qvf_of_distribution, score
from qvf.noise import NoiseModel
from qvf.records import QvfRecord, records_to_string
from qvf.simulator import PROB_FLOOR, draw_counts, measured_probabilities, run_exact


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
        grid = build_grid()
        assert len(grid) == 312
        assert grid[0] == FaultParams(0.0, 0.0)
        degs = grid_degrees()
        assert degs[0] == (0, 0)
        assert degs[1] == (0, 15)   # phi is the fast axis
        assert degs[24] == (15, 0)
        assert degs[-1] == (180, 345)
        assert len(degs) == len(grid)
        for params, (t, p) in zip(grid, degs):
            assert math.isclose(params.theta, math.radians(t), abs_tol=1e-12)
            assert math.isclose(params.phi, math.radians(p), abs_tol=1e-12)

    def test_coarse_grid(self):
        assert len(build_grid(90)) == 3 * 4
        assert len(build_grid(45)) == 5 * 8

    def test_step_must_divide_360(self):
        with pytest.raises(ValueError):
            build_grid(7)
        with pytest.raises(ValueError):
            CampaignConfig(grid_step=50)
        for step in (0, -15):
            with pytest.raises(ValueError):
                build_grid(step)
            with pytest.raises(ValueError):
                CampaignConfig(grid_step=step)

    def test_fault_params_ranges(self):
        FaultParams(math.pi, 0.0)
        with pytest.raises(ValueError):
            FaultParams(0.0, 0.0, lam=0.1)
        with pytest.raises(ValueError):
            FaultParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            FaultParams(3.5, 0.0)
        with pytest.raises(ValueError):
            FaultParams(0.0, 2.0 * math.pi)
        with pytest.raises(ValueError):
            FaultParams(0.0, -0.1)


class TestInject:
    def test_inserts_after_site_gate(self):
        c = build_grover()
        fault = FaultSpec(FaultSite(0, 0), FaultParams(0.5, 1.0))
        out = inject(c, [fault])
        assert len(out.gates) == len(c.gates) + 1
        inserted = out.gates[1]
        assert inserted.name == "u"
        assert inserted.qubits == (0,)
        assert inserted.params == (0.5, 1.0, 0.0)
        assert out.gates[0] == c.gates[0]
        assert out.gates[2:] == c.gates[1:]
        assert len(c.gates) == 16  # input untouched

    def test_multiple_faults_keep_list_order(self):
        c = Circuit(2, [("cx", (0, 1), ())], (0, 1))
        faults = [
            FaultSpec(FaultSite(0, 1), FaultParams(0.1, 0.0)),
            FaultSpec(FaultSite(0, 0), FaultParams(0.2, 0.0)),
        ]
        out = inject(c, faults)
        assert [g.qubits[0] for g in out.gates[1:]] == [1, 0]

    def test_rejects_bad_sites(self):
        c = build_grover()
        with pytest.raises(ValueError):
            inject(c, [FaultSpec(FaultSite(99, 0), FaultParams(0.1, 0.0))])
        with pytest.raises(ValueError):
            # gate 0 is h on qubit 0, so qubit 1 is not a target
            inject(c, [FaultSpec(FaultSite(0, 1), FaultParams(0.1, 0.0))])

    def test_quarter_turn_after_first_hadamard(self):
        c = build_grover()
        fault = FaultSpec(FaultSite(0, 0), FaultParams(math.pi / 4, 0.0))
        dist = run_exact(inject(c, [fault]))
        summary = qvf_of_distribution(dist, c.correct_states)
        assert math.isclose(summary.pst, math.cos(math.pi / 8) ** 2, abs_tol=1e-12)
        assert math.isclose(summary.qvf, (1.0 - 2 ** -0.5) / 2.0, abs_tol=1e-12)

    def test_matches_oracle_route(self):
        c = build_grover()
        raw = [(g.name, g.qubits, g.params) for g in c.gates]
        for theta, phi, (gi, q) in ((0.7, 2.2, (3, 1)), (2.9, 5.1, (7, 0))):
            fault = FaultSpec(FaultSite(gi, q), FaultParams(theta, phi))
            mine = run_exact(inject(c, [fault])).entries
            theirs = oracles.exact_distribution(
                2, oracles.insert_fault(raw, gi, q, theta, phi), c.measured
            )
            for key in set(mine) | set(theirs):
                assert abs(mine.get(key, 0.0) - theirs.get(key, 0.0)) < 1e-10


def campaign_list(circuit, **kw):
    return list(run_campaign(circuit, CampaignConfig(**kw)))


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
            assert r.improved == (r.qvf < r.baseline_qvf)

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
        with pytest.raises(CampaignError):
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
        with pytest.raises(ValueError):
            CampaignConfig(jobs=0)

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
        base = baseline_record(c, CampaignConfig(noise=noise))
        records = campaign_list(c, grid_step=90, noise=noise)
        identity_rows = [
            r for r in records[1:] if r.theta_deg == 0.0 and r.phi_deg == 0.0
        ]
        assert records[0].qvf == base.qvf
        assert base.qvf > 0.0
        for r in identity_rows:
            assert r.qvf > base.qvf
            assert not r.improved

    def test_records_are_plain_dataclasses(self):
        r = campaign_list(build_grover(), grid_step=90)[0]
        assert dataclasses.is_dataclass(r)


class TestThetaZeroFaults:
    """theta=0 faults are pure phase gates: invisible to a measurement that
    follows directly, but convertible to amplitude error by later gates."""

    PHASE = FaultParams(0.0, math.pi / 2)

    def qvf_with_fault(self, circuit, site):
        faulted = inject(circuit, [FaultSpec(site, self.PHASE)])
        return qvf_of_distribution(run_exact(faulted), circuit.correct_states).qvf

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
                c = c.with_metadata(
                    correct_states={oracles.bitstring(int(i), width) for i in picked}
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
            for r in run_campaign(c, CampaignConfig(grid_step=self.GRID_STEP)):
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
            for r in run_campaign(c, config):
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


class TestBlockKernel:
    """The site-batched campaign kernel against a per-record reference.

    The reference re-simulates one injected circuit per record, as the
    campaign runner did before it swept a site's grid as one state block.
    Every amplitude undergoes the same floating-point operations on both
    routes, so the CSV text must match byte for byte; a drift of one ulp
    changes the repr-formatted values or, in sampled mode, the draws.
    """

    @staticmethod
    def reference_csv(circuit, config):
        mask = np.zeros(2 ** len(circuit.measured), dtype=bool)
        mask[[bitstring_to_index(s) for s in circuit.correct_states]] = True
        circuit_id = circuit.name or "circuit"

        def row(site_index, site, angles, faulted, grid_index, baseline_qvf):
            probs = measured_probabilities(faulted)
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
                baseline_qvf, summary.qvf < baseline_qvf,
            )

        base = row(-1, None, (0, 0), circuit, 0, None)
        rows = [base]
        sites = enumerate_sites(circuit)
        picked = range(len(sites)) if config.sites is None else config.sites
        for site_index in picked:
            site = sites[site_index]
            for grid_index, (t, p) in enumerate(grid_degrees(config.grid_step)):
                fault = FaultSpec(site, FaultParams(math.radians(t), math.radians(p)))
                rows.append(row(
                    site_index, site, (t, p), inject(circuit, [fault]), grid_index, base.qvf
                ))
        return records_to_string(rows)

    @staticmethod
    def cases():
        """(circuit, grid step, sites) triples: random circuits up to six
        qubits, plus a nine-qubit one whose 15-degree grid needs several
        column chunks per site."""
        rng = np.random.default_rng(3031)
        out = []
        for _ in range(20):
            c = random_circuit(rng, max_qubits=6, max_gates=10)
            if c.correct_states is None:
                width = len(c.measured)
                c = c.with_metadata(correct_states={
                    oracles.bitstring(int(rng.integers(2 ** width)), width)
                })
            out.append((c, int(rng.choice([45, 90])), None))
        # a random rotation on every qubit first, so that each measured
        # outcome sums 32 irregular nonzero amplitudes and the order of
        # the sum shows in the last bits
        spread = [("u", (q,), tuple(rng.uniform(0, 2 * math.pi, 3))) for q in range(9)]
        wide = Circuit(9, spread + random_gates(rng, 9, 14), (4, 0, 7, 2),
                       correct_states={"0110"})
        assert len(grid_degrees(15)) * 2 ** wide.n_qubits > 2 * BLOCK_AMPLITUDES
        out.append((wide, 15, (3, 11)))
        assert any(len(c.measured) <= c.n_qubits - 2 for c, _, _ in out)
        return out

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_csv_matches_per_record_reference(self, mode):
        for circuit, step, sites in self.cases():
            config = CampaignConfig(
                grid_step=step, mode=mode, shots=200, seed=17, sites=sites
            )
            want = self.reference_csv(circuit, config)
            for jobs in (1, 2):
                got = records_to_string(
                    run_campaign(circuit, dataclasses.replace(config, jobs=jobs))
                )
                assert got == want, (circuit, config, jobs)
