"""End-to-end command-line behavior, including exit codes."""

import builtins
import errno
import gc
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import oracles
import qvf
from support import table_rows
from qvf import cli, metrics, records, render
from qvf.cli import EXIT_IO, EXIT_PARSE, EXIT_SIMULATION, EXIT_USAGE, main
from qvf.metrics import HeatmapGrid, HistogramStats, delta_qvf
from qvf.qasm import parse_qasm
from qvf.records import COLUMNS, SCHEMA_LINE, read_table_file

BELL_QASM = """\
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""


@pytest.fixture(scope="module")
def grover_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("campaign") / "grover.csv"
    assert main(["campaign", "run", "grover", "--grid-step", "90",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def grover_sampled_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("campaign") / "grover_sampled.csv"
    assert main(["campaign", "run", "grover", "--grid-step", "90", "--mode",
                 "sampled", "--seed", "3", "--jobs", "1", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def bv_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("campaign") / "bv.csv"
    assert main(["campaign", "run", "bv", "--grid-step", "90",
                 "--out", str(path)]) == 0
    return path


class TestBench:
    def test_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("bv", "dj", "grover"):
            assert name in out

    def test_build_to_stdout(self, capsys):
        assert main(["bench", "build", "grover"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")
        assert "// qvf:correct 11" in out

    def test_build_file_round_trips(self, tmp_path, capsys):
        path = tmp_path / "bv.qasm"
        assert main(["bench", "build", "bv", "--secret", "101",
                     "--out", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        circuit = parse_qasm(path.read_text())
        assert circuit.name == "bv-101"
        assert circuit.correct_states == frozenset({"101"})

    def test_build_dj_constant_round_trips(self, capsys):
        assert main(["bench", "build", "dj", "--oracle", "constant", "--bit", "1"]) == 0
        circuit = parse_qasm(capsys.readouterr().out)
        assert circuit.gates == qvf.build_deutsch_jozsa("constant", bit=1).gates

    def test_build_rejects_bad_secret(self, capsys):
        assert main(["bench", "build", "bv", "--secret", "21"]) == EXIT_PARSE
        assert "error:" in capsys.readouterr().err


#: SHA-256 of the noiseless 15-degree campaign files (``--jobs 1``), as
#: recorded with Python 3.11.7 and numpy 2.4.6, by (benchmark, extra flags)
GOLDEN_DIGESTS = {
    ("bv", ()): "f47ba4152913ca9589f8de3bcf11d12dde58b11d8222d20cddae687b8e4e0bd3",
    ("dj", ()): "ab6d925ce8146ad66dee56c17e83f6b9444569fcdf49ee6d148456c9c031f9e4",
    ("grover", ()): "5039c1aadd2c0ad7dc0027a3a729218e5ce5a23acaa2cb13cf316e5b0a775afa",
    ("bv", ("--mode", "sampled", "--seed", "5")):
        "a3496397273c4a8d3ccdfaa5ec6272167e5a2c325dc57dd6af704e69ccaf330f",
    ("dj", ("--mode", "sampled", "--seed", "5")):
        "a3426c186011717073de5b42f6e35262057e902700db0ab81978a6b7f53b5ecd",
    ("grover", ("--mode", "sampled", "--seed", "5")):
        "7d1025ba40858115d2b48ce5cfc5824104930cf422e64b3be5bb6ceb05cc939f",
}


class TestCampaign:
    @pytest.mark.parametrize("bench, extra", GOLDEN_DIGESTS)
    def test_noiseless_files_are_byte_identical_to_recorded_ones(self, tmp_path, bench, extra):
        # the other campaign tests compare against references built from the
        # same simulator, so only a recorded digest pins the bytes themselves
        # (noisy files are left out: their last bits may move)
        path = tmp_path / "out.csv"
        assert main(["campaign", "run", bench, "--grid-step", "15", "--jobs", "1",
                     "--out", str(path), *extra]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_DIGESTS[bench, extra]

    def test_summary_and_file(self, grover_csv, capsys):
        table = read_table_file(grover_csv)
        assert len(table) == 1 + 18 * 12
        assert table.site_index[0] == -1
        assert table.circuit_id[0] == "grover-11"

    def test_summary_lines(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "fault records: 216 (+1 baseline), mode exact" in out
        assert "baseline qvf: 0.000000" in out
        assert "mean qvf:" in out and "stddev:" in out
        assert "improved faults:" in out

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["campaign", "run", "grover", "--grid-step", "90",
                "--mode", "sampled", "--shots", "64", "--seed", "11",
                "--jobs", "2"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_noisy_jobs_are_byte_identical(self, tmp_path, mode):
        base = ["campaign", "run", "grover", "--grid-step", "90",
                "--noise", "representative", "--mode", mode, "--seed", "5"]
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_seed_changes_sampled_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["campaign", "run", "grover", "--grid-step", "90",
                "--mode", "sampled", "--shots", "64"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QVF_OUT_DIR", str(tmp_path))
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--out", "rel.csv"]) == 0
        assert (tmp_path / "rel.csv").exists()

    def test_qasm_circuit_derives_correct_states(self, tmp_path, capsys):
        src = tmp_path / "bell.qasm"
        src.write_text(BELL_QASM)
        out = tmp_path / "bell.csv"
        assert main(["campaign", "run", str(src), "--grid-step", "90",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "derived ['00', '11']" in captured.err
        table = read_table_file(out)
        assert table.qvf[0] == 0.0
        assert table.circuit_id[0] == "circuit"

    def test_explicit_correct_and_id(self, tmp_path, capsys):
        src = tmp_path / "bell.qasm"
        src.write_text(BELL_QASM)
        out = tmp_path / "bell.csv"
        assert main(["campaign", "run", str(src), "--grid-step", "90",
                     "--correct", "00,11", "--circuit-id", "bell",
                     "--out", str(out)]) == 0
        assert "derived" not in capsys.readouterr().err
        assert read_table_file(out).circuit_id[0] == "bell"

    def test_site_subset(self, tmp_path):
        out = tmp_path / "sub.csv"
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--sites", "0", "3", "--out", str(out)]) == 0
        assert len(read_table_file(out)) == 1 + 2 * 12

    def test_noise_flag(self, tmp_path, capsys):
        out = tmp_path / "noisy.csv"
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--noise", "representative", "--out", str(out)]) == 0
        assert read_table_file(out).qvf[0] > 0.0


#: every style flag of a grid report, with a value other than its default
GRID_STYLE_FLAGS = {
    "heatmap": {"--green-below": "0.2", "--red-above": "0.7", "--cell": "7",
                "--overlay": None},
    "perqubit": {"--green-below": "0.2", "--red-above": "0.7", "--cell": "7",
                 "--overlay": None},
    "delta": {"--cell": "7"},
}
#: the options that pick one grid of a grid report, as flag, value pairs
GRID_SELECTION = {
    "heatmap": [], "perqubit": ["--qubit", "0"], "delta": ["--qubit-a", "0", "--qubit-b", "1"],
}


class TestReports:
    def test_heatmap_formats(self, grover_csv, tmp_path, capsys):
        for fmt, name in (("svg", "map.svg"), ("csv", "map.csv"), ("ppm", "map.ppm")):
            out = tmp_path / name
            assert main(["report", "heatmap", "--in", str(grover_csv),
                         "--format", fmt, "--out", str(out)]) == 0
            assert out.exists()
        assert tmp_path.joinpath("map.svg").read_text().startswith("<svg")
        assert tmp_path.joinpath("map.ppm").read_bytes().startswith(b"P6\n")
        assert "theta_deg,phi_deg,value" in tmp_path.joinpath("map.csv").read_text()

    def test_heatmap_to_stdout(self, grover_csv, capsys):
        assert main(["report", "heatmap", "--in", str(grover_csv),
                     "--format", "csv", "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("theta_deg,phi_deg,value")

    def test_overlay_flag(self, grover_csv, tmp_path):
        out = tmp_path / "overlay.svg"
        assert main(["report", "heatmap", "--in", str(grover_csv), "--overlay",
                     "--out", str(out)]) == 0
        assert "stroke-dasharray" in out.read_text()

    def test_perqubit_writes_suffixed_files(self, bv_csv, tmp_path):
        out = tmp_path / "per.svg"
        assert main(["report", "perqubit", "--in", str(bv_csv),
                     "--out", str(out)]) == 0
        for q in range(4):
            assert (tmp_path / f"per_q{q}.svg").exists()

    def test_perqubit_single(self, bv_csv, tmp_path, capsys):
        out = tmp_path / "q2.svg"
        assert main(["report", "perqubit", "--in", str(bv_csv), "--qubit", "2",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert main(["report", "perqubit", "--in", str(bv_csv), "--qubit", "9",
                     "--out", str(out)]) == EXIT_USAGE

    def test_perqubit_to_stdout_needs_qubit(self, bv_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # refused before the record file is opened, and no "-_qN" files appear
        assert main(["report", "perqubit", "--in", str(tmp_path / "missing.csv"),
                     "--out", "-"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []
        assert main(["report", "perqubit", "--in", str(bv_csv), "--qubit", "2",
                     "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("<svg")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("options", [
        ["perqubit", "--qubit", "9"],
        ["delta", "--qubit-a", "0", "--qubit-b", "9"],
        ["delta", "--qubit-a", "9", "--qubit-b", "0"],
    ])
    def test_absent_qubit_is_a_usage_error(self, bv_csv, tmp_path, capsys, options):
        out = tmp_path / "absent.svg"
        assert main(["report", *options, "--in", str(bv_csv), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: no records for qubit 9\n"
        assert list(tmp_path.iterdir()) == []

    def test_delta_between_qubits(self, bv_csv, tmp_path):
        out = tmp_path / "delta.csv"
        assert main(["report", "delta", "--in", str(bv_csv), "--qubit-a", "0",
                     "--qubit-b", "3", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("theta_deg,phi_deg,value")

    def test_delta_between_files(self, grover_csv, tmp_path):
        out = tmp_path / "delta.svg"
        assert main(["report", "delta", "--in", str(grover_csv),
                     "--in-b", str(grover_csv), "--out", str(out)]) == 0
        # identical inputs cancel exactly
        assert 'fill="rgb(255,255,255)"' in out.read_text()

    def test_delta_flag_conflicts(self, grover_csv, tmp_path, capsys):
        out = tmp_path / "delta.svg"
        assert main(["report", "delta", "--in", str(grover_csv),
                     "--in-b", str(grover_csv), "--qubit-a", "0",
                     "--out", str(out)]) == EXIT_USAGE
        assert main(["report", "delta", "--in", str(grover_csv),
                     "--out", str(out)]) == EXIT_USAGE
        assert main(["report", "delta", "--in", str(grover_csv),
                     "--qubit-a", "0", "--out", str(out)]) == EXIT_USAGE

    @pytest.mark.parametrize("options, message", [
        (["--in-b", "b.csv", "--qubit-a", "0"], "--in-b and --qubit-a/--qubit-b are exclusive"),
        (["--qubit-a", "0"], "delta needs --in-b FILE or --qubit-a N --qubit-b M"),
    ])
    def test_delta_flags_are_checked_before_the_file(self, tmp_path, capsys, options,
                                                      message):
        # a usage error, not the missing record file's I/O error
        assert main(["report", "delta", "--in", str(tmp_path / "missing.csv"), *options,
                     "--out", str(tmp_path / "d.svg")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_timeline(self, grover_csv, tmp_path):
        out = tmp_path / "timeline.csv"
        assert main(["report", "timeline", "--in", str(grover_csv),
                     "--theta", "90", "--phi", "0", "--format", "csv",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("qubit,gate_index,qvf")
        svg = tmp_path / "timeline.svg"
        assert main(["report", "timeline", "--in", str(grover_csv),
                     "--theta", "90", "--phi", "0", "--out", str(svg)]) == 0
        assert "<polyline" in svg.read_text()

    def test_timeline_missing_grid_point(self, grover_csv, tmp_path, capsys):
        out = tmp_path / "x.svg"
        code = main(["report", "timeline", "--in", str(grover_csv),
                     "--theta", "33", "--phi", "0", "--out", str(out)])
        assert code == EXIT_PARSE

    def test_hist(self, grover_csv, tmp_path, capsys):
        out = tmp_path / "hist.svg"
        assert main(["report", "hist", "--in", str(grover_csv), "--bins", "20",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "mean qvf:" in captured and "stddev:" in captured
        assert "<svg" in out.read_text()

    @pytest.mark.parametrize("kind, flag, value", [
        (kind, flag, value)
        for kind, flags in GRID_STYLE_FLAGS.items() for flag, value in flags.items()
    ])
    def test_no_grid_flag_is_ignored(self, grover_csv, tmp_path, kind, flag, value):
        call = ["report", kind, "--in", str(grover_csv), *GRID_SELECTION[kind]]
        assert main([*call, "--out", str(tmp_path / "default.svg")]) == 0
        flags = [flag] if value is None else [flag, value]
        assert main([*call, *flags, "--out", str(tmp_path / "set.svg")]) == 0
        assert (tmp_path / "set.svg").read_bytes() != (tmp_path / "default.svg").read_bytes()

    @pytest.mark.parametrize("kind, flag, value", [
        (kind, flag, value)
        for kind, flags in GRID_STYLE_FLAGS.items() for flag, value in flags.items()
        if flag != "--overlay"
    ])
    def test_ppm_reads_every_style_flag_but_overlay(self, grover_csv, tmp_path, kind, flag,
                                                    value):
        call = ["report", kind, "--in", str(grover_csv), *GRID_SELECTION[kind],
                "--format", "ppm"]
        assert main([*call, "--out", str(tmp_path / "default.ppm")]) == 0
        assert main([*call, flag, value, "--out", str(tmp_path / "set.ppm")]) == 0
        assert (tmp_path / "set.ppm").read_bytes() != (tmp_path / "default.ppm").read_bytes()

    @pytest.mark.parametrize("kind, fmt, flags", [
        (kind, fmt, [flag] if value is None else [flag, value])
        for kind, style in GRID_STYLE_FLAGS.items() for flag, value in style.items()
        for fmt in ("ppm", "csv") if fmt == "csv" or flag == "--overlay"
    ] + [("heatmap", "csv", ["--cell", "24"]),  # a default value given is still given
         ("delta", "csv", ["--cell", "24"]),
         ("perqubit", "csv", ["--green-below", "0.45", "--red-above", "0.55"])])
    def test_style_flags_a_format_ignores_are_refused(self, grover_csv, tmp_path, capsys,
                                                      kind, fmt, flags):
        out = tmp_path / f"map.{fmt}"
        out.write_text("kept")
        for infile in (grover_csv, tmp_path / "missing.csv"):  # refused before reading
            assert main(["report", kind, "--in", str(infile), *GRID_SELECTION[kind],
                         "--format", fmt, *flags, "--out", str(out)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err == f"error: {flags[0]} does nothing with --format {fmt}\n"
            assert captured.out == ""
        assert out.read_text() == "kept"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("kind", sorted(GRID_STYLE_FLAGS))
    def test_grid_style_flags_are_all_listed(self, kind, capsys):
        with pytest.raises(SystemExit):
            main(["report", kind, "--help"])
        accepted = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        # what a grid report reads, writes and picks, not how it draws it
        selection = {"--help", "--in", "--out", "--format", "--qubit", "--in-b",
                     "--qubit-a", "--qubit-b"}
        assert accepted - selection == set(GRID_STYLE_FLAGS[kind])

    @pytest.mark.parametrize("flags", [
        ["--overlay"], ["--green-below", "0.2"], ["--red-above", "0.7"],
    ])
    def test_delta_refuses_heatmap_style_flags(self, grover_csv, tmp_path, capsys, flags):
        out = tmp_path / "delta.svg"
        out.write_text("kept")
        with pytest.raises(SystemExit) as ei:
            main(["report", "delta", "--in", str(grover_csv), *GRID_SELECTION["delta"],
                  *flags, "--out", str(out)])
        assert ei.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert out.read_text() == "kept"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("kind", ["heatmap", "perqubit"])
    @pytest.mark.parametrize("thresholds", [
        ["--green-below", "0.9", "--red-above", "0.1"],
        ["--red-above=-inf"],
        ["--green-below=-0.1"],
        ["--red-above", "1.5"],
        ["--red-above", "inf"],
        ["--green-below", "nan"],
        ["--red-above", "nan"],
        ["--green-below", "nan", "--red-above", "nan"],
    ])
    def test_bad_thresholds_are_usage_errors(self, grover_csv, tmp_path, capsys, kind,
                                             thresholds):
        out = tmp_path / "map.svg"
        out.write_text("kept")
        assert main(["report", kind, "--in", str(grover_csv), *GRID_SELECTION[kind],
                     *thresholds, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: thresholds must satisfy")
        assert captured.out == ""
        assert out.read_text() == "kept"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("kind", ["heatmap", "perqubit"])
    @pytest.mark.parametrize("lo, hi", [("0.5", "0.5"), ("0", "1"), ("0", "0"), ("1", "1")])
    def test_threshold_edges_are_accepted(self, grover_csv, tmp_path, kind, lo, hi):
        call = ["report", kind, "--in", str(grover_csv), *GRID_SELECTION[kind]]
        assert main([*call, "--green-below", lo, "--red-above", hi,
                     "--out", str(tmp_path / "map.svg")]) == 0
        assert (tmp_path / "map.svg").read_text().startswith("<svg")


def grid_bytes(grid, fmt, delta=False, thresholds=(0.45, 0.55), overlay=False, cell=24):
    """A grid rendered as the report commands do; the keyword defaults are
    the commands' defaults."""
    if fmt == "ppm":
        if delta:
            return render.render_grid_ppm(grid, scale=cell, diverging=True)
        return render.render_grid_ppm(grid, thresholds=thresholds, scale=cell)
    if fmt == "csv":
        return render.grid_csv(grid).encode()
    if delta:
        return render.render_delta_svg(grid, cell=cell).encode()
    return render.render_heatmap_svg(grid, thresholds=thresholds, overlay=overlay,
                                     cell=cell).encode()


class TestReportsMatchOracle:
    """Every report kind and format, byte for byte against the per-record
    aggregations in tests/oracles.py put through the same renderers."""

    def test_grid_reports(self, grover_csv, grover_sampled_csv, tmp_path):
        rows = table_rows(read_table_file(grover_csv))
        circuit = HeatmapGrid(*oracles.aggregate_heatmap(rows), "circuit")
        qubits = {q: HeatmapGrid(*grid, f"qubit:{q}")
                  for q, grid in oracles.aggregate_heatmap(rows, "qubit").items()}
        other = HeatmapGrid(
            *oracles.aggregate_heatmap(table_rows(read_table_file(grover_sampled_csv))),
            "circuit")
        option_sets = (
            # formats, then flags and grid_bytes arguments of heatmap/perqubit and delta
            (("svg", "ppm", "csv"), [], {}, [], {}),
            (("svg",),
             ["--overlay", "--green-below", "0.2", "--red-above", "0.7", "--cell", "7"],
             {"overlay": True, "thresholds": (0.2, 0.7), "cell": 7},
             ["--cell", "3"], {"cell": 3}),
            (("ppm",),  # a ppm refuses --overlay, which it cannot draw
             ["--green-below", "0.2", "--red-above", "0.7", "--cell", "7"],
             {"thresholds": (0.2, 0.7), "cell": 7},
             ["--cell", "3"], {"cell": 3}),
        )
        for formats, map_flags, map_style, delta_flags, delta_style in option_sets:
            for fmt in formats:
                expected = {
                    f"heat.{fmt}": grid_bytes(circuit, fmt, **map_style),
                    f"dq.{fmt}": grid_bytes(delta_qvf(qubits[0], qubits[1]), fmt,
                                            delta=True, **delta_style),
                    f"dfile.{fmt}": grid_bytes(delta_qvf(circuit, other), fmt,
                                               delta=True, **delta_style),
                }
                expected.update({f"per_q{q}.{fmt}": grid_bytes(grid, fmt, **map_style)
                                 for q, grid in qubits.items()})
                calls = (
                    ("heatmap", map_flags, "heat"),
                    ("perqubit", map_flags, "per"),
                    ("delta", ["--qubit-a", "0", "--qubit-b", "1", *delta_flags], "dq"),
                    ("delta", ["--in-b", str(grover_sampled_csv), *delta_flags], "dfile"),
                )
                for kind, options, stem in calls:
                    assert main(["report", kind, "--in", str(grover_csv), "--format", fmt,
                                 *options, "--out", str(tmp_path / f"{stem}.{fmt}")]) == 0
                for name, blob in expected.items():
                    assert (tmp_path / name).read_bytes() == blob, (name, map_flags)

    def test_series_reports(self, grover_csv, tmp_path, capsys):
        rows = table_rows(read_table_file(grover_csv))
        series = oracles.timeline(rows, 90.0, 0.0)
        stats = HistogramStats(*oracles.histogram_stats(rows, 50))
        expected = {
            "timeline.svg": render.render_timeline_svg(
                series, "QVF by gate index at theta=90 phi=0"),
            "timeline.csv": render.timeline_csv(series),
            "hist.svg": render.render_hist_svg(stats, "QVF distribution"),
            "hist.csv": render.hist_csv(stats),
        }
        for fmt in ("svg", "csv"):
            assert main(["report", "timeline", "--in", str(grover_csv), "--theta", "90",
                         "--phi", "0", "--format", fmt,
                         "--out", str(tmp_path / f"timeline.{fmt}")]) == 0
            assert main(["report", "hist", "--in", str(grover_csv), "--format", fmt,
                         "--out", str(tmp_path / f"hist.{fmt}")]) == 0
            assert (f"mean qvf: {stats.mean:.6f}  stddev: {stats.stddev:.6f}"
                    in capsys.readouterr().out)
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode(), name


REPORT_OPTIONS = {
    "heatmap": [], "perqubit": [], "delta": ["--qubit-a", "0", "--qubit-b", "1"],
    "timeline": ["--theta", "90", "--phi", "0"], "hist": [],
}


class TestExitCodes:
    def test_usage_errors_from_argparse(self):
        with pytest.raises(SystemExit) as ei:
            main(["definitely-not-a-command"])
        assert ei.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as ei:
            main(["campaign", "run", "grover"])  # --out missing
        assert ei.value.code == EXIT_USAGE

    def test_parse_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[1]; creg c[1]; warp q[0]; measure q[0] -> c[0];")
        out = tmp_path / "o.csv"
        assert main(["campaign", "run", str(bad), "--out", str(out)]) == EXIT_PARSE
        assert "line 1" in capsys.readouterr().err

        not_records = tmp_path / "plain.csv"
        not_records.write_text("a,b,c\n1,2,3\n")
        assert main(["report", "heatmap", "--in", str(not_records),
                     "--out", str(out)]) == EXIT_PARSE

        bad_noise = tmp_path / "noise.ini"
        bad_noise.write_text("[qubits]\nt2 = nine\n")
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--noise", str(bad_noise), "--out", str(out)]) == EXIT_PARSE

    def test_bad_grid_step(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        for step in ("0", "-15"):
            code = main(["campaign", "run", "grover", "--grid-step", step,
                         "--out", str(out)])
            assert code == EXIT_PARSE
            assert "error:" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_oversized_shots(self, tmp_path, capsys, mode):
        # a count beyond int64 used to end the sampled draw in an
        # OverflowError traceback
        out = tmp_path / "o.csv"
        out.write_bytes(b"previous campaign\n")
        code = main(["campaign", "run", "grover", "--mode", mode, "--shots", str(2**63),
                     "--grid-step", "90", "--jobs", "1", "--out", str(out)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: shots must be in 1 .. 2**63 - 1\n"
        assert captured.out == ""
        assert out.read_bytes() == b"previous campaign\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_duplicate_sites(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["campaign", "run", "bv", "--sites", "0", "0",
                     "--grid-step", "90", "--out", str(out)])
        assert code == EXIT_PARSE
        assert "error: duplicate site" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_qubits, extra", [
        (40, []),
        (40, ["--correct", "0"]),
        (12, ["--correct", "0", "--noise", "representative"]),
    ])
    def test_oversized_circuit(self, tmp_path, capsys, n_qubits, extra):
        # refused before any state is allocated: 2^40 amplitudes, or a
        # 4^12-entry density matrix under noise; the baseline's own error
        # is not wrapped as a failing site
        src = tmp_path / "wide.qasm"
        src.write_text(f"qreg q[{n_qubits}]; creg c[1]; h q[0]; cx q[0],q[1]; "
                       "measure q[0] -> c[0];")
        out = tmp_path / "o.csv"
        code = main(["campaign", "run", str(src), "--grid-step", "90",
                     "--jobs", "1", "--out", str(out)] + extra)
        assert code == EXIT_SIMULATION
        limit = {40: "20 for a state vector", 12: "10 for a density matrix"}[n_qubits]
        assert capsys.readouterr().err == (
            f"error: {n_qubits} qubits exceed the simulator's limit of {limit}\n")
        assert sorted(tmp_path.iterdir()) == [src]

    def test_simulation_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["campaign", "run", "grover", "--grid-step", "90",
                     "--sites", "99", "--out", str(out)])
        assert code == EXIT_SIMULATION
        assert "site index 99" in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

        out.write_bytes(b"previous campaign\n")
        code = main(["campaign", "run", "grover", "--grid-step", "90",
                     "--sites", "99", "--out", str(out)])
        assert code == EXIT_SIMULATION
        assert out.read_bytes() == b"previous campaign\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_circuit_without_fault_sites(self, tmp_path, capsys):
        # only measurements: nothing to sweep, so no baseline-only file
        # that every report would reject later
        src = tmp_path / "bare.qasm"
        src.write_text("qreg q[1]; creg c[1]; measure q[0] -> c[0];")
        out = tmp_path / "o.csv"
        out.write_bytes(b"previous campaign\n")
        code = main(["campaign", "run", str(src), "--grid-step", "90",
                     "--out", str(out)])
        assert code == EXIT_PARSE
        assert "error: circuit has no fault sites" in capsys.readouterr().err
        assert out.read_bytes() == b"previous campaign\n"
        assert sorted(tmp_path.iterdir()) == [src, out]

    @pytest.mark.parametrize("kind", sorted(REPORT_OPTIONS))
    def test_header_only_record_file(self, tmp_path, capsys, kind):
        empty = tmp_path / "empty.csv"
        empty.write_text(f"{SCHEMA_LINE}\n{','.join(COLUMNS)}\n")
        code = main(["report", kind, "--in", str(empty), *REPORT_OPTIONS[kind],
                     "--out", str(tmp_path / "o.svg")])
        assert code == EXIT_PARSE
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [empty]

    @pytest.mark.parametrize("kind", ["heatmap", "timeline", "hist"])
    def test_non_finite_angle(self, grover_csv, tmp_path, capsys, kind):
        lines = grover_csv.read_text().splitlines()
        row = lines[5].split(",")
        row[COLUMNS.index("theta_deg")] = "nan"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n")
        code = main(["report", kind, "--in", str(bad), *REPORT_OPTIONS[kind],
                     "--out", str(tmp_path / "o.svg")])
        assert code == EXIT_PARSE
        assert "error: line 6: non-finite fault angle" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("value, message", [
        ("nan", "non-finite metric value"),
        ("x", "could not convert string to float: 'x'"),
    ])
    def test_bad_value_after_a_chunk_boundary(self, grover_csv, tmp_path, capsys,
                                              monkeypatch, value, message):
        # one row more than a chunk; the bad value opens the second chunk
        monkeypatch.setattr(records, "CHUNK_ROWS", 4)
        lines = grover_csv.read_text().splitlines()[:7]
        row = lines[6].split(",")
        row[COLUMNS.index("qvf")] = value
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:6] + [",".join(row)]) + "\n")
        code = main(["report", "heatmap", "--in", str(bad),
                     "--out", str(tmp_path / "o.svg")])
        assert code == EXIT_PARSE
        assert f"error: line 7: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    def test_field_above_the_csv_limit(self, grover_csv, tmp_path, capsys):
        lines = grover_csv.read_text().splitlines()
        row = lines[4].split(",")
        row[COLUMNS.index("circuit_id")] = '"' + "x" * 140_000 + '"'
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:4] + [",".join(row)] + lines[5:]) + "\n")
        code = main(["report", "hist", "--in", str(bad), "--out", str(tmp_path / "h.svg")])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: line 5: field larger than field limit (131072)\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [bad]

    def test_circuit_id_above_the_csv_limit(self, tmp_path, capsys):
        # refused before a file no reader would take is written
        out = tmp_path / "o.csv"
        code = main(["campaign", "run", "grover", "--grid-step", "90", "--jobs", "1",
                     "--circuit-id", "x" * 140_000, "--out", str(out)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: circuit_id is longer than the csv field limit (131072)\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, extra", [
        ("heatmap", ["--format", "ppm", "--cell", "-3"]),
        ("heatmap", ["--format", "ppm", "--cell", "0"]),
        ("heatmap", ["--format", "svg", "--cell", "0"]),
        ("delta", ["--format", "svg", "--cell", "-1"]),
        # 400,000 x 300,000 px: refused before anything is allocated
        ("heatmap", ["--format", "ppm", "--cell", "100000"]),
        ("perqubit", ["--format", "ppm", "--cell", "100000"]),
        ("delta", ["--format", "ppm", "--cell", "100000"]),
        ("hist", ["--bins", "1000000000"]),
        ("hist", ["--bins", str(metrics.MAX_BINS + 1)]),
    ])
    def test_report_size_limits(self, grover_csv, tmp_path, capsys, kind, extra):
        out = tmp_path / "o.out"
        out.write_bytes(b"previous report\n")
        code = main(["report", kind, "--in", str(grover_csv), *REPORT_OPTIONS[kind],
                     *extra, "--out", str(out)])
        assert code == EXIT_PARSE
        assert "error:" in capsys.readouterr().err
        assert out.read_bytes() == b"previous report\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_ppm_budget_admits_the_default_cell_on_a_one_degree_grid(self):
        assert (360 * 24) * (181 * 24) <= render.MAX_PPM_PIXELS

    @pytest.mark.parametrize("argv", [
        ["report", "heatmap", "--format", "csv"],
        ["campaign", "run", "grover", "--grid-step", "90", "--jobs", "1"],
    ])
    def test_failed_write_keeps_existing_out(self, grover_csv, tmp_path, capsys,
                                             monkeypatch, argv):
        class HalfWritten:
            """A file whose writes land half their text, then fail."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(cli, "open", lambda *a, **kw: HalfWritten(builtins.open(*a, **kw)),
                            raising=False)
        out = tmp_path / "o.csv"
        out.write_bytes(b"previous output\n")
        if argv[0] == "report":
            argv = argv + ["--in", str(grover_csv)]
        assert main(argv + ["--out", str(out)]) == EXIT_IO
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_bytes() == b"previous output\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_io_errors(self, tmp_path, capsys):
        assert main(["report", "heatmap", "--in", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "o.svg")]) == EXIT_IO
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--out", str(tmp_path / "no-dir" / "o.csv")]) == EXIT_IO


class TestCampaignMemory:
    def test_peak_does_not_grow_with_sites(self, tmp_path):
        # rows stream to the file one site block at a time, and the summary
        # keeps only the QVF column, so 18 sites peak about as high as one
        def peak(*extra):
            tracemalloc.start()
            try:
                assert main(["campaign", "run", "dj", "--grid-step", "10",
                             "--jobs", "1", "--out", str(tmp_path / "o.csv"),
                             *extra]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("--sites", "0")  # first-call caches are not campaign memory
        one_site = peak("--sites", "0")
        all_sites = peak()
        assert all_sites < 1.5 * one_site, (all_sites, one_site)


def test_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # the parser is built once per process; a parser per call is left behind
    # as about a thousand objects of cyclic garbage
    out = tmp_path / "g.csv"

    def pair():
        assert main(["campaign", "run", "grover", "--grid-step", "90", "--jobs", "1",
                     "--out", str(out)]) == 0
        assert main(["report", "hist", "--in", str(out), "--format", "csv",
                     "--out", "-"]) == 0

    gc.disable()
    try:
        pair()  # first-call caches are not garbage
        gc.collect()
        pair()
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage < 100, garbage


def test_console_script_installed():
    # the child imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(qvf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qvf.cli", "bench", "list"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "grover" in proc.stdout
