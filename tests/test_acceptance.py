"""Acceptance gate: one test per numbered criterion, tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  The full default campaigns (312-point grid, every site,
the three stock benchmarks) run once each in shared fixtures: noiseless
exact, sampled at 1,024 shots, and exact under the representative noise
config.
"""

import io
import math
import os
import time

import numpy as np
import pytest

import oracles
from support import campaign_csv, campaign_rows, entries, random_gates, score_entries
from qvf.benchmarks import DEFAULTS
from qvf.circuit import Circuit
from qvf.injector import CampaignConfig, FaultSite, enumerate_sites
from qvf.metrics import histogram_stats
from qvf.noise import load_noise_config
from qvf.qasm import emit_qasm, parse_qasm
from qvf.records import read_table

JOBS = min(os.cpu_count() or 1, 8)

EXPECTED_FAULT_RECORDS = {"bv": 4056, "dj": 5616, "grover": 5616}
SHOTS = 1024


def _full_campaign(**kw):
    out = {}
    for name, builder in DEFAULTS.items():
        out[name] = campaign_rows(builder(), CampaignConfig(jobs=JOBS, **kw))
    return out


@pytest.fixture(scope="module")
def noiseless():
    started = time.perf_counter()
    campaigns = _full_campaign()
    elapsed = time.perf_counter() - started
    return campaigns, elapsed


@pytest.fixture(scope="module")
def sampled():
    return _full_campaign(mode="sampled", shots=SHOTS, seed=0)


@pytest.fixture(scope="module")
def noisy():
    from importlib import resources

    text = (resources.files("qvf") / "data" / "representative_noise.ini").read_text()
    return _full_campaign(noise=load_noise_config(text))


def pair_distribution(pa, pb):
    rest = 1.0 - pa - pb
    return {"000": pa, "001": pb, "010": rest * 0.6, "011": rest * 0.4}


def test_01_metric_regression_on_reported_pairs():
    # tolerance 0.01: the first pair computes to 0.0247, reported as 0.03
    for (pa, pb), expected in (
        ((0.949, 0.024), 0.03),
        ((0.484, 0.486), 0.50),
        ((0.361, 0.604), 0.63),
    ):
        got = score_entries(pair_distribution(pa, pb), {"000"}).qvf
        assert abs(got - expected) <= 0.01, (pa, pb, got, expected)


def test_02_pst_qvf_divergence_case():
    spray = {format(i, "05b"): 0.5 / 31 for i in range(32)}
    spray["00100"] = 0.5
    assert max(p for s, p in spray.items() if s != "00100") <= 0.0176
    summary = score_entries(spray, {"00100"})
    assert abs(summary.pst - 0.5) <= 1e-12
    assert abs(summary.qvf - 0.03) <= 0.005


def test_03_campaign_arithmetic_and_runtime(noiseless):
    campaigns, elapsed = noiseless
    totals = {}
    for name, records in campaigns.items():
        faults = [r for r in records if r.site_index >= 0]
        assert len(records) == len(faults) + 1  # exactly one baseline row
        assert len(faults) == EXPECTED_FAULT_RECORDS[name], name
        totals[name] = len(faults) * SHOTS
    assert totals["bv"] == 4_153_344
    assert totals["dj"] == 5_750_784
    assert totals["grover"] == 5_750_784
    assert sum(totals.values()) == 15_654_912
    assert elapsed < 120.0, f"noiseless suite took {elapsed:.1f}s (limit 120s)"


def test_04_noiseless_baselines_are_zero(noiseless):
    campaigns, _ = noiseless
    for name, records in campaigns.items():
        baseline = records[0]
        assert baseline.site_index == -1
        assert abs(baseline.qvf) <= 1e-10, (name, baseline.qvf)


def test_05_endpoint_fault_law_on_bv_data_qubits(noiseless):
    campaigns, _ = noiseless
    circuit = DEFAULTS["bv"]()
    sites = enumerate_sites(circuit)
    final_sites = set()
    for q in circuit.measured:
        last_gate = max(gi for gi, g in enumerate(circuit.gates) if q in g.qubits)
        final_sites.add(sites.index(FaultSite(last_gate, q)))
    assert len(final_sites) == 3
    checked = 0
    for r in campaigns["bv"]:
        if r.site_index in final_sites:
            law = (1.0 - math.cos(math.radians(r.theta_deg))) / 2.0
            assert abs(r.qvf - law) <= 1e-9, (r.site_index, r.theta_deg, r.phi_deg)
            if r.theta_deg == 90:
                assert abs(r.qvf - 0.5) <= 1e-9
            checked += 1
    assert checked == 3 * 312


def test_06_phi_reflection_symmetry(noiseless):
    campaigns, _ = noiseless
    for name, records in campaigns.items():
        table = {
            (r.site_index, r.theta_deg, r.phi_deg): r.qvf
            for r in records
            if r.site_index >= 0
        }
        for (site, theta, phi), value in table.items():
            mirror = table[(site, theta, (360.0 - phi) % 360.0)]
            assert abs(value - mirror) <= 1e-10, (name, site, theta, phi)


def test_07_ancilla_insensitivity_after_final_cx(noiseless):
    campaigns, _ = noiseless
    circuit = DEFAULTS["bv"]()
    ancilla = circuit.n_qubits - 1
    assert ancilla not in circuit.measured
    final_cx = max(
        gi for gi, g in enumerate(circuit.gates)
        if g.name == "cx" and ancilla in g.qubits
    )
    sites = enumerate_sites(circuit)
    late = {
        i for i, s in enumerate(sites)
        if s.qubit == ancilla and s.gate_index >= final_cx
    }
    assert late
    checked = 0
    for r in campaigns["bv"]:
        if r.site_index in late and r.theta_deg == 180 and r.phi_deg == 0:
            assert abs(r.qvf) <= 1e-10, r.site_index
            checked += 1
    assert checked == len(late)


def test_08_identity_faults_equal_baseline_exactly(noiseless):
    campaigns, _ = noiseless
    for name, records in campaigns.items():
        baseline = records[0]
        rows = [
            r for r in records
            if r.site_index >= 0 and r.theta_deg == 0 and r.phi_deg == 0
        ]
        assert len(rows) == len(enumerate_sites(DEFAULTS[name]()))
        for r in rows:
            assert r.pst == baseline.pst, name
            assert r.p_b == baseline.p_b, name
            assert r.contrast == baseline.contrast, name
            assert r.qvf == baseline.qvf, name


def test_09_sampling_statistics_and_determinism(noiseless, sampled):
    campaigns, _ = noiseless
    rng = np.random.default_rng(2024)
    pool = []
    for name in DEFAULTS:
        exact = [r for r in campaigns[name] if r.site_index >= 0]
        drawn = [r for r in sampled[name] if r.site_index >= 0]
        assert len(exact) == len(drawn)
        pool.extend(zip(exact, drawn))
    picks = rng.choice(len(pool), size=200, replace=False)
    for i in picks:
        exact_r, sampled_r = pool[int(i)]
        assert (exact_r.site_index, exact_r.theta_deg, exact_r.phi_deg) == (
            sampled_r.site_index, sampled_r.theta_deg, sampled_r.phi_deg)
        sigma = math.sqrt(exact_r.pst * (1.0 - exact_r.pst) / SHOTS)
        assert abs(sampled_r.pst - exact_r.pst) <= 4.0 * sigma + 1e-12, (
            exact_r.site_index, exact_r.theta_deg, exact_r.phi_deg)

    rerun = campaign_csv(DEFAULTS["bv"](), CampaignConfig(mode="sampled", shots=SHOTS, seed=0))
    assert rerun == oracles.record_csv(sampled["bv"])


def test_10_noise_model_qualitative_reproduction(noisy):
    baselines = {name: records[0].qvf for name, records in noisy.items()}
    for name, value in baselines.items():
        assert value > 0.0, name

    means = {
        name: histogram_stats(read_table(io.StringIO(oracles.record_csv(records)))).mean
        for name, records in noisy.items()
    }
    assert means["grover"] > means["bv"]
    assert means["grover"] > means["dj"]

    improved = sum(
        r.improved for records in noisy.values() for r in records
        if r.site_index >= 0
    )
    assert improved > 0


def test_11_qasm_round_trip_gate_exact():
    from support import random_circuit

    circuits = [builder() for builder in DEFAULTS.values()]
    rng = np.random.default_rng(99)
    circuits += [random_circuit(rng) for _ in range(100)]
    for c in circuits:
        back = parse_qasm(emit_qasm(c))
        assert back.gates == c.gates
        assert back.measured == c.measured
        assert back.n_qubits == c.n_qubits


def test_12_oracle_equivalence_with_injected_faults():
    rng = np.random.default_rng(505)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        raw = random_gates(rng, n, int(rng.integers(1, 10)))
        measured = tuple(range(n))
        gi = int(rng.integers(len(raw)))
        qubit = int(raw[gi][1][rng.integers(len(raw[gi][1]))])
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))

        faulted = oracles.insert_fault(raw, gi, qubit, theta, phi)
        mine = entries(Circuit(n, faulted, measured))
        theirs = oracles.exact_distribution(n, faulted, measured)
        for key in set(mine) | set(theirs):
            diff = abs(mine.get(key, 0.0) - theirs.get(key, 0.0))
            assert diff <= 1e-10, (trial, key, diff)
