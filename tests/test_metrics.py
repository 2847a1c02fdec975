"""Metric chain regressions and campaign aggregation behavior."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from support import QvfRecord, score_entries, table_rows
from qvf.metrics import (
    HeatmapGrid,
    MetricsError,
    aggregate_heatmap,
    delta_qvf,
    histogram_stats,
    qvf,
    score,
    timeline,
)
from qvf.records import read_table


def pair_dist(pa, pb):
    """Three-bit distribution with correct mass pa and worst incorrect pb."""
    rest = 1.0 - pa - pb
    return {"000": pa, "001": pb, "010": rest * 0.6, "011": rest * 0.4}


class TestMetricChain:
    def test_high_confidence_pair(self):
        s = score_entries(pair_dist(0.949, 0.024), {"000"})
        assert math.isclose(s.contrast, 0.9506680369989722, abs_tol=1e-15)
        assert math.isclose(s.qvf, 0.02466598150051391, abs_tol=1e-15)

    def test_ambiguous_pair(self):
        s = score_entries(pair_dist(0.484, 0.486), {"000"})
        assert math.isclose(s.qvf, 0.5010309278, abs_tol=1e-9)

    def test_confidently_wrong_pair(self):
        s = score_entries(pair_dist(0.361, 0.604), {"000"})
        assert math.isclose(s.qvf, 0.6259067358, abs_tol=1e-9)

    def test_half_mass_against_uniform_spray(self):
        entries = {format(i, "05b"): 0.5 / 31 for i in range(32)}
        entries["00100"] = 0.5
        s = score_entries(entries, {"00100"})
        assert math.isclose(s.pst, 0.5, abs_tol=1e-12)
        assert math.isclose(s.p_b, 0.5 / 31, abs_tol=1e-15)
        assert math.isclose(s.contrast, 0.9375, abs_tol=1e-12)
        assert math.isclose(s.qvf, 0.03125, abs_tol=1e-12)

    def test_perfect_output(self):
        s = score_entries({"01": 1.0}, {"01"})
        assert (s.pst, s.p_b, s.contrast, s.qvf) == (1.0, 0.0, 1.0, 0.0)

    def test_certain_failure(self):
        s = score_entries({"10": 1.0}, {"01"})
        assert s.qvf == pytest.approx(1.0)

    def test_multiple_correct_states_sum(self):
        d = {"00": 0.3, "11": 0.45, "01": 0.25}
        assert score_entries(d, {"00", "11"}).pst == pytest.approx(0.75)
        assert score_entries(d, {"00", "11"}).p_b == pytest.approx(0.25)

    def test_counts_mode_matches_probability_mode(self):
        counted = score_entries({"00": 700, "01": 200, "10": 100}, {"00"}, shots=1000)
        exact = score_entries({"00": 0.7, "01": 0.2, "10": 0.1}, {"00"})
        for field in ("pst", "p_b", "contrast", "qvf"):
            assert getattr(counted, field) == pytest.approx(getattr(exact, field))

    def test_matches_oracle_fold_on_random_distributions(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n_states = int(rng.integers(2, 9))
            probs = rng.dirichlet(np.ones(n_states))
            labels = [format(i, "03b") for i in range(n_states)]
            k = int(rng.integers(1, n_states))
            correct = set(rng.choice(labels, size=k, replace=False))
            d = dict(zip(labels, probs))
            pa, pb, contrast, vuln = oracles.metrics_fold(d, correct)
            s = score_entries(d, correct)
            assert math.isclose(s.pst, pa, abs_tol=1e-15)
            assert math.isclose(s.p_b, pb, abs_tol=1e-15)
            assert math.isclose(s.contrast, contrast, abs_tol=1e-14)
            assert math.isclose(s.qvf, vuln, abs_tol=1e-14)
            assert -1e-12 <= s.qvf <= 1.0 + 1e-12

    def test_pst_ignores_shuffling_of_incorrect_mass(self):
        a = {"00": 0.6, "01": 0.4}
        b = {"00": 0.6, "01": 0.1, "10": 0.1, "11": 0.2}
        assert score_entries(a, {"00"}).pst == score_entries(b, {"00"}).pst

    def test_error_cases(self):
        with pytest.raises(MetricsError):
            score_entries({}, {"00"})
        with pytest.raises(MetricsError):
            qvf(1.5)

    def test_block_scores_each_column_like_a_vector(self):
        rng = np.random.default_rng(5)
        block = rng.random((8, 40))
        block[:, 3] = 0.0
        block[5, 3] = 1.0
        block /= block.sum(axis=0)
        for mask_rows in ([1], [0, 2, 6], list(range(8))):
            mask = np.zeros(8, dtype=bool)
            mask[mask_rows] = True
            summary = score(block, mask)
            for j in range(block.shape[1]):
                one = score(block[:, j], mask)
                assert (one.pst, one.p_b, one.contrast, one.qvf) == (
                    summary.pst[j], summary.p_b[j], summary.contrast[j], summary.qvf[j]
                )
                assert isinstance(one.qvf, float)

    def test_block_errors(self):
        mask = np.array([True, False])
        with pytest.raises(MetricsError, match="no mass"):
            score(np.array([[0.5, 0.0], [0.5, 0.0]]), mask)
        with pytest.raises(MetricsError, match="out of range"):
            score(np.array([[0.5, -2.0], [0.5, 1.0]]), mask)
        with pytest.raises(MetricsError, match="out of range"):
            qvf(np.array([0.0, 1.5]))

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_qvf_is_affine_in_contrast(self, c):
        assert qvf(c) == pytest.approx(1.0 - (c + 1.0) / 2.0)
        assert 0.0 <= qvf(c) <= 1.0

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8),
        st.data(),
    )
    def test_contrast_sign_tracks_pa_vs_pb(self, weights, data):
        total = sum(weights)
        labels = [format(i, "03b") for i in range(len(weights))]
        d = {s: w / total for s, w in zip(labels, weights)}
        k = data.draw(st.integers(min_value=1, max_value=len(labels) - 1))
        correct = set(labels[:k])
        c = score_entries(d, correct).contrast
        pa = score_entries(d, correct).pst
        pb = score_entries(d, correct).p_b
        assert (c > 0) == (pa > pb) or math.isclose(pa, pb, abs_tol=1e-12)


def rec(**kw):
    base = dict(
        circuit_id="toy",
        site_index=0,
        gate_index=0,
        qubit=0,
        theta_deg=0,
        phi_deg=0,
        mode="exact",
        shots=0,
        seed=0,
        pst=1.0,
        p_b=0.0,
        contrast=1.0,
        qvf=0.0,
        baseline_qvf=0.0,
        improved=False,
    )
    base.update(kw)
    if base["site_index"] == -1:  # the reader takes a baseline only with -1/-1/-1
        base.update(gate_index=-1, qubit=-1)
    return QvfRecord(**base)


def as_table(rows):
    """The RecordTable that read_table parses from the rows' record file."""
    return read_table(io.StringIO(oracles.record_csv(rows)))


def grid_records():
    out = []
    value = iter([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    for site, qubit in ((0, 0), (1, 1)):
        for theta in (0, 90):
            for phi in (0, 180):
                out.append(
                    rec(
                        site_index=site,
                        gate_index=site,
                        qubit=qubit,
                        theta_deg=theta,
                        phi_deg=phi,
                        qvf=next(value),
                    )
                )
    return out


class TestAggregations:
    def test_circuit_grid_means(self):
        grid = aggregate_heatmap(as_table(grid_records()))
        assert grid.theta_degs == (0, 90)
        assert grid.phi_degs == (0, 180)
        assert np.allclose(grid.cells, [[0.3, 0.4], [0.5, 0.6]])

    def test_baseline_rows_excluded(self):
        records = [rec(site_index=-1, qvf=0.77)] + grid_records()
        grid = aggregate_heatmap(as_table(records))
        assert np.allclose(grid.cells, [[0.3, 0.4], [0.5, 0.6]])

    def test_grouped_by_qubit_and_site(self):
        by_qubit = aggregate_heatmap(as_table(grid_records()), grouping="qubit")
        assert sorted(by_qubit) == [0, 1]
        assert np.allclose(by_qubit[0].cells, [[0.1, 0.2], [0.3, 0.4]])
        assert by_qubit[1].group == "qubit:1"
        by_site = aggregate_heatmap(as_table(grid_records()), grouping="site")
        assert np.allclose(by_site[1].cells, [[0.5, 0.6], [0.7, 0.8]])

    def test_empty_cell_is_an_error(self):
        records = grid_records()[:-1]
        with pytest.raises(MetricsError):
            aggregate_heatmap(as_table(records), grouping="site")

    def test_unknown_grouping(self):
        with pytest.raises(MetricsError):
            aggregate_heatmap(as_table(grid_records()), grouping="shot")

    def test_no_fault_records(self):
        with pytest.raises(MetricsError):
            aggregate_heatmap(as_table([rec(site_index=-1)]))

    def test_delta_antisymmetric_and_axis_checked(self):
        a = aggregate_heatmap(as_table(grid_records()), grouping="qubit")[0]
        b = aggregate_heatmap(as_table(grid_records()), grouping="qubit")[1]
        d = delta_qvf(a, b)
        assert np.allclose(d.cells, -delta_qvf(b, a).cells)
        assert np.allclose(d.cells, -0.4)
        other = HeatmapGrid((0, 45), (0, 180), np.zeros((2, 2)))
        with pytest.raises(MetricsError):
            delta_qvf(a, other)

    def test_grid_cells_must_match_the_axes(self):
        with pytest.raises(MetricsError, match="cell block does not match the axes"):
            HeatmapGrid((0,), (0, 1), np.zeros((1, 1)))

    def test_timeline_orders_by_depth(self):
        records = [
            rec(site_index=2, gate_index=5, qubit=0, theta_deg=90, qvf=0.3),
            rec(site_index=0, gate_index=1, qubit=0, theta_deg=90, qvf=0.1),
            rec(site_index=1, gate_index=3, qubit=1, theta_deg=90, qvf=0.2),
            rec(site_index=3, gate_index=8, qubit=0, theta_deg=45, qvf=0.9),
            rec(site_index=-1, theta_deg=90, qvf=0.5),
        ]
        series = timeline(as_table(records), 90, 0)
        assert series == {0: [(1, 0.1), (5, 0.3)], 1: [(3, 0.2)]}
        with pytest.raises(MetricsError):
            timeline(as_table(records), 15, 0)

    def test_histogram_stats(self):
        records = [rec(qvf=v) for v in (0.0, 0.5, 1.0)]
        stats = histogram_stats(as_table(records), bins=2)
        assert stats.mean == pytest.approx(0.5)
        assert stats.stddev == pytest.approx(math.sqrt(1 / 6))
        assert stats.counts == (1, 2)
        assert stats.bin_edges == (0.0, 0.5, 1.0)

    def test_histogram_errors(self):
        with pytest.raises(MetricsError):
            histogram_stats(as_table([rec()]), bins=0)
        with pytest.raises(MetricsError):
            histogram_stats(as_table([rec(site_index=-1)]))


# fractional angles and angles on the integer grid, unsorted
ANGLES = (0.0, 7.5, 0.125, 15.0, 337.5, 90.0, 22.5, 180.0)


@st.composite
def campaign_records(draw):
    """One campaign's records: up to 4 sites on 1 or 2 qubits over a small
    (theta, phi) grid, some points or whole sites missing, rows shuffled,
    with or without the baseline."""
    thetas = draw(st.lists(st.sampled_from(ANGLES), min_size=1, max_size=3, unique=True))
    phis = draw(st.lists(st.sampled_from(ANGLES), min_size=1, max_size=3, unique=True))
    n_qubits = draw(st.integers(1, 2))
    qvf_values = st.floats(0.0, 1.0)
    rows = []
    for site in draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True)):
        gate, qubit = draw(st.integers(0, 5)), draw(st.integers(0, n_qubits - 1))
        for theta in thetas:
            for phi in phis:
                if draw(st.integers(0, 9)) == 0:
                    continue
                rows.append(rec(site_index=site, gate_index=gate, qubit=qubit,
                                theta_deg=theta, phi_deg=phi, qvf=draw(qvf_values),
                                improved=draw(st.booleans())))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows.insert(0, rec(site_index=-1, gate_index=-1, qubit=-1, qvf=draw(qvf_values)))
    return rows, draw(st.sampled_from(thetas)), draw(st.sampled_from(phis))


def same_grid(grid, expected):
    thetas, phis, cells = expected
    assert grid.theta_degs == thetas and grid.phi_degs == phis
    assert grid.cells.tobytes() == cells.tobytes()


def both(oracle_call, call):
    """(oracle result, package result), or (None, None) after checking that
    both fail with the same message."""
    try:
        expected = oracle_call()
    except ValueError as exc:
        with pytest.raises(MetricsError, match=re.escape(str(exc))):
            call()
        return None, None
    return expected, call()


class TestAgainstPerRecordOracle:
    @settings(max_examples=150, deadline=None)
    @given(campaign_records(), st.integers(1, 12))
    def test_table_path_is_bit_identical(self, case, bins):
        records, theta, phi = case
        table = as_table(records)
        assert table_rows(table) == list(records)
        for grouping in ("circuit", "qubit", "site"):
            expected, got = both(
                lambda: oracles.aggregate_heatmap(records, grouping),
                lambda: aggregate_heatmap(table, grouping))
            if grouping == "circuit" and got:
                assert got.group == "circuit"
                same_grid(got, expected)
            elif got:
                assert list(got) == list(expected)
                for key, grid in got.items():
                    assert grid.group == f"{grouping}:{key}"
                    same_grid(grid, expected[key])
        expected, series = both(lambda: oracles.timeline(records, theta, phi),
                                lambda: timeline(table, theta, phi))
        assert series == expected
        for qubit, points in (series or {}).items():
            assert type(qubit) is int
            assert all(type(g) is int and type(v) is float for g, v in points)
        expected, stats = both(lambda: oracles.histogram_stats(records, bins),
                               lambda: histogram_stats(table, bins=bins))
        if stats:
            assert (stats.mean, stats.stddev, stats.counts, stats.bin_edges) == expected
