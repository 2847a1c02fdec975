"""End-to-end command-line behavior, including exit codes."""

import os
import subprocess
import sys

import pytest

import qvf
from qvf.cli import EXIT_IO, EXIT_PARSE, EXIT_SIMULATION, EXIT_USAGE, main
from qvf.qasm import parse_qasm
from qvf.records import read_records_file

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

    def test_build_rejects_bad_secret(self, capsys):
        assert main(["bench", "build", "bv", "--secret", "21"]) == EXIT_PARSE
        assert "error:" in capsys.readouterr().err


class TestCampaign:
    def test_summary_and_file(self, grover_csv, capsys):
        records = read_records_file(grover_csv)
        assert len(records) == 1 + 18 * 12
        assert records[0].site_index == -1
        assert records[0].circuit_id == "grover-11"

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
        records = read_records_file(out)
        assert records[0].qvf == 0.0
        assert records[0].circuit_id == "circuit"

    def test_explicit_correct_and_id(self, tmp_path, capsys):
        src = tmp_path / "bell.qasm"
        src.write_text(BELL_QASM)
        out = tmp_path / "bell.csv"
        assert main(["campaign", "run", str(src), "--grid-step", "90",
                     "--correct", "00,11", "--circuit-id", "bell",
                     "--out", str(out)]) == 0
        assert "derived" not in capsys.readouterr().err
        assert read_records_file(out)[0].circuit_id == "bell"

    def test_site_subset(self, tmp_path):
        out = tmp_path / "sub.csv"
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--sites", "0", "3", "--out", str(out)]) == 0
        records = read_records_file(out)
        assert len(records) == 1 + 2 * 12

    def test_noise_flag(self, tmp_path, capsys):
        out = tmp_path / "noisy.csv"
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--noise", "representative", "--out", str(out)]) == 0
        records = read_records_file(out)
        assert records[0].qvf > 0.0


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
        # 4^12-entry density matrix under noise
        src = tmp_path / "wide.qasm"
        src.write_text(f"qreg q[{n_qubits}]; creg c[1]; h q[0]; cx q[0],q[1]; "
                       "measure q[0] -> c[0];")
        out = tmp_path / "o.csv"
        code = main(["campaign", "run", str(src), "--grid-step", "90",
                     "--jobs", "1", "--out", str(out)] + extra)
        assert code == EXIT_SIMULATION
        assert "error:" in capsys.readouterr().err
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

    def test_io_errors(self, tmp_path, capsys):
        assert main(["report", "heatmap", "--in", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "o.svg")]) == EXIT_IO
        assert main(["campaign", "run", "grover", "--grid-step", "90",
                     "--out", str(tmp_path / "no-dir" / "o.csv")]) == EXIT_IO


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
