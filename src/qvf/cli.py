"""Command-line front end.

Subcommands::

    qvf bench list
    qvf bench build {bv,dj,grover} [options] [--out FILE]
    qvf campaign run CIRCUIT [sweep options] --out FILE
    qvf report {heatmap,perqubit,delta,timeline,hist} --in FILE [options]

CIRCUIT is either a benchmark name (bv, dj, grover, built with defaults)
or a path to a file in the supported subset.  Relative output paths are
resolved against $QVF_OUT_DIR when it is set.

Exit codes: 0 success, 2 usage error, 3 input parse error (circuit file,
record file, noise config), 4 simulation failure, 5 I/O failure.
"""

import argparse
import dataclasses
import functools
import os
import sys
from importlib import resources

import numpy as np

from . import benchmarks, metrics, render
from .circuit import index_to_bitstring
from .injector import CampaignConfig, CampaignError, campaign_blocks
from .noise import NoiseConfigError, load_noise_config, load_noise_file
from .qasm import QasmError, emit_qasm, parse_qasm
from .records import BlockWriter, RecordFileError, read_table_file
from .simulator import SimulationError, measured_probabilities

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SIMULATION = 4
EXIT_IO = 5

#: derived correct states keep every outcome within this of the peak
DERIVE_TOL = 1e-9


class _UsageError(Exception):
    pass


def _resolve_out(path: str) -> str:
    base = os.environ.get("QVF_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_file(path: str, write, binary: bool = False):
    """Call ``write(fh)`` on a temporary file beside the resolved ``path``
    and move it into place only once ``write`` returns, so a failed write
    leaves no partial file and keeps an existing one."""
    path = _resolve_out(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    fh = open(tmp, "xb" if binary else "x", **text)
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    print(f"wrote {path}")


def _write_out(path: str, data):
    """Report text or bytes to stdout for '-', else through :func:`_write_file`."""
    binary = isinstance(data, bytes)
    if path == "-":
        (sys.stdout.buffer if binary else sys.stdout).write(data)
    else:
        _write_file(path, lambda fh: fh.write(data), binary)


def _load_circuit(ref: str):
    if ref in benchmarks.DEFAULTS:
        return benchmarks.DEFAULTS[ref]()
    with open(ref, "r", encoding="utf-8") as fh:
        return parse_qasm(fh.read())


def _load_noise(ref):
    if ref is None:
        return None
    if ref == "representative":
        text = (
            resources.files("qvf") / "data" / "representative_noise.ini"
        ).read_text(encoding="utf-8")
        return load_noise_config(text)
    return load_noise_file(ref)


def _derived_correct(circuit):
    """Argmax set of the noiseless exact distribution."""
    probs = measured_probabilities(circuit)
    return frozenset(
        index_to_bitstring(int(i), len(circuit.measured))
        for i in np.flatnonzero(probs >= probs.max() - DERIVE_TOL)
    )


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cmd_bench_list(args):
    print("bv      hidden-bitmask search, 3-bit secret (default 011)")
    print("dj      constant-vs-balanced oracle test (default balanced, mask 111)")
    print("grover  two-qubit amplitude search (default marked 11)")
    return 0


def _cmd_bench_build(args):
    if args.kind == "bv":
        circuit = benchmarks.build_bernstein_vazirani(args.secret)
    elif args.kind == "dj":
        circuit = benchmarks.build_deutsch_jozsa(args.oracle, args.mask, args.bit)
    else:
        circuit = benchmarks.build_grover(args.marked, args.iterations)
    _write_out(args.out, emit_qasm(circuit))
    return 0


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def _cmd_campaign_run(args):
    """Stream rows to --out site block by site block; keep only the QVF column."""
    circuit = _load_circuit(args.circuit)
    correct = circuit.correct_states
    if args.correct:
        correct = [s for chunk in args.correct for s in chunk.replace(",", " ").split()]
    elif correct is None:
        correct = _derived_correct(circuit)
        print(
            f"note: no correct states given; derived {sorted(correct)} "
            "from the noiseless output",
            file=sys.stderr,
        )
    circuit = dataclasses.replace(circuit, name=args.circuit_id or circuit.name,
                                  correct_states=correct)

    config = CampaignConfig(
        grid_step=args.grid_step,
        shots=args.shots,
        mode=args.mode,
        noise=_load_noise(args.noise),
        seed=args.seed,
        sites=tuple(args.sites) if args.sites else None,
        jobs=args.jobs if args.jobs else (os.cpu_count() or 1),
    )

    baseline, blocks = campaign_blocks(circuit, config)
    qvfs, improved = [], 0

    def write_rows(fh):
        nonlocal improved
        writer = BlockWriter(fh, circuit, config, baseline)
        for block in blocks:
            writer.write(*block)
            qvfs.append(block.qvf)
            improved += int(block.improved.sum())

    _write_file(args.out, write_rows)
    qvfs = np.concatenate(qvfs)
    n = len(qvfs)
    mean, stddev = float(qvfs.mean()), float(qvfs.std())
    print(f"fault records: {n} (+1 baseline), mode {config.mode}")
    print(f"baseline qvf: {baseline.qvf[0]:.6f}")
    print(f"mean qvf: {mean:.6f}  stddev: {stddev:.6f}")
    print(f"improved faults: {improved} ({100.0 * improved / n:.2f}%)")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


#: the style flags each grid format reads; one given with a format that
#: does not read it is refused
STYLE_READ_BY_FORMAT = {"svg": ("green_below", "red_above", "cell", "overlay"),
                        "ppm": ("green_below", "red_above", "cell"), "csv": ()}


class _StyleFlag(argparse.Action):
    """Store a grid style flag and add it to ``namespace.given``, in
    command-line order, so that a flag the format ignores can be refused
    even at its default value."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace.given += (self.dest,)


def _grid_output(args, grid, out_path):
    """Render a heatmap, perqubit or delta grid in ``args.format``, reading
    only the style flags that format reads."""
    style = {name: getattr(args, name) for name in STYLE_READ_BY_FORMAT[args.format]
             if hasattr(args, name)}  # delta takes --cell only
    if args.format == "csv":
        data = render.grid_csv(grid)
    elif args.which == "delta" and args.format == "svg":
        data = render.render_delta_svg(grid, cell=style["cell"])
    elif args.which == "delta":
        data = render.render_grid_ppm(grid, scale=style["cell"], diverging=True)
    elif args.format == "svg":
        data = render.render_heatmap_svg(grid, thresholds=(style["green_below"],
                                                           style["red_above"]),
                                         overlay=style["overlay"], cell=style["cell"])
    else:
        data = render.render_grid_ppm(grid, thresholds=(style["green_below"],
                                                        style["red_above"]),
                                      scale=style["cell"])
    _write_out(out_path, data)


def _qubit_grid(grids, qubit):
    if qubit not in grids:
        raise _UsageError(f"no records for qubit {qubit}")
    return grids[qubit]


def _suffixed(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_{tag}{ext}"


def _cmd_report(args):
    if args.which == "perqubit" and args.qubit is None and args.out == "-":
        raise _UsageError("perqubit writes one file per qubit; --out - needs --qubit N")
    for name in getattr(args, "given", ()):
        if name not in STYLE_READ_BY_FORMAT[args.format]:
            flag = "--" + name.replace("_", "-")
            raise _UsageError(f"{flag} does nothing with --format {args.format}")
    if args.which in ("heatmap", "perqubit") and not (
            0.0 <= args.green_below <= args.red_above <= 1.0):  # also refuses nan
        raise _UsageError("thresholds must satisfy 0 <= --green-below <= --red-above <= 1, "
                          f"got {args.green_below:g} and {args.red_above:g}")
    if args.which == "delta":
        qubits = (args.qubit_a, args.qubit_b)
        if args.in_b and qubits != (None, None):
            raise _UsageError("--in-b and --qubit-a/--qubit-b are exclusive")
        if not args.in_b and None in qubits:
            raise _UsageError("delta needs --in-b FILE or --qubit-a N --qubit-b M")
    table = read_table_file(args.infile)
    if args.which == "heatmap":
        grid = metrics.aggregate_heatmap(table, "circuit")
        _grid_output(args, grid, args.out)
    elif args.which == "perqubit":
        grids = metrics.aggregate_heatmap(table, "qubit")
        if args.qubit is not None:
            _grid_output(args, _qubit_grid(grids, args.qubit), args.out)
        else:
            for qubit, grid in sorted(grids.items()):
                _grid_output(args, grid, _suffixed(args.out, f"q{qubit}"))
    elif args.which == "delta":
        if args.in_b:
            grid_a = metrics.aggregate_heatmap(table, "circuit")
            grid_b = metrics.aggregate_heatmap(read_table_file(args.in_b), "circuit")
        else:
            grids = metrics.aggregate_heatmap(table, "qubit")
            grid_a, grid_b = (_qubit_grid(grids, q) for q in (args.qubit_a, args.qubit_b))
        _grid_output(args, metrics.delta_qvf(grid_a, grid_b), args.out)
    elif args.which == "timeline":
        series = metrics.timeline(table, args.theta, args.phi)
        title = f"QVF by gate index at theta={args.theta:g} phi={args.phi:g}"
        if args.format == "svg":
            _write_out(args.out, render.render_timeline_svg(series, title))
        else:
            _write_out(args.out, render.timeline_csv(series))
    else:  # hist
        stats = metrics.histogram_stats(table, bins=args.bins)
        print(f"mean qvf: {stats.mean:.6f}  stddev: {stats.stddev:.6f}")
        if args.format == "svg":
            _write_out(args.out, render.render_hist_svg(stats, "QVF distribution"))
        else:
            _write_out(args.out, render.hist_csv(stats))
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: a parser per
    call would leave its objects as cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="qvf",
        description="Fault-injection campaigns and vulnerability reports "
                    "for small quantum circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="benchmark circuits")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_sub.add_parser("list", help="list available benchmarks")
    build = bench_sub.add_parser("build", help="write a benchmark circuit file")
    build.add_argument("kind", choices=sorted(benchmarks.DEFAULTS))
    build.add_argument("--secret", default="011", help="bv: 3-bit secret")
    build.add_argument("--oracle", default="balanced",
                       choices=("balanced", "constant"), help="dj oracle kind")
    build.add_argument("--mask", default="111", help="dj balanced mask")
    build.add_argument("--bit", type=int, default=0, help="dj constant output bit")
    build.add_argument("--marked", default="11", help="grover marked state")
    build.add_argument("--iterations", type=int, default=1)
    build.add_argument("--out", default="-", help="output path ('-' for stdout)")

    campaign = sub.add_parser("campaign", help="run fault-injection sweeps")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    run = campaign_sub.add_parser("run", help="sweep every site against the grid")
    run.add_argument("circuit", help="benchmark name (bv/dj/grover) or circuit file")
    run.add_argument("--grid-step", type=int, default=15, help="degrees per step")
    run.add_argument("--shots", type=int, default=1024)
    run.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    run.add_argument("--noise", default=None,
                     help="noise config path, or 'representative'")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--jobs", type=int, default=0,
                     help="worker processes (default: all cores)")
    run.add_argument("--sites", type=int, nargs="+", default=None,
                     help="restrict to these site indices")
    run.add_argument("--correct", nargs="+", default=None,
                     help="override correct output states")
    run.add_argument("--circuit-id", default=None)
    run.add_argument("--out", required=True, help="record CSV path")

    report = sub.add_parser("report", help="render records")
    report_sub = report.add_subparsers(dest="which", required=True)

    heatmap = report_sub.add_parser("heatmap", help="whole-circuit mean-QVF map")
    perqubit = report_sub.add_parser("perqubit", help="per-qubit mean-QVF maps")
    perqubit.add_argument("--qubit", type=int, default=None,
                          help="render only this qubit")
    delta = report_sub.add_parser("delta", help="difference of two mean-QVF maps")
    delta.add_argument("--in-b", dest="in_b", default=None,
                       help="second record file (whole-circuit delta)")
    delta.add_argument("--qubit-a", type=int, default=None)
    delta.add_argument("--qubit-b", type=int, default=None)
    timeline = report_sub.add_parser("timeline", help="QVF by gate index")
    timeline.add_argument("--theta", type=float, required=True, help="degrees")
    timeline.add_argument("--phi", type=float, required=True, help="degrees")
    hist = report_sub.add_parser("hist", help="QVF histogram and moments")
    hist.add_argument("--bins", type=int, default=50)
    # thresholds and the overlay are for mean-QVF maps: delta has its own scale
    maps, grids = (heatmap, perqubit), (heatmap, perqubit, delta)
    green, red = render.DEFAULT_THRESHOLDS
    for p in (heatmap, perqubit, delta, timeline, hist):
        p.add_argument("--format", default="svg",
                       choices=("svg", "ppm", "csv") if p in grids else ("svg", "csv"))
        p.add_argument("--out", required=True, help="output path ('-' for stdout)")
        if p in grids:
            p.set_defaults(given=())
        if p in maps:
            p.add_argument("--green-below", type=float, default=green, action=_StyleFlag,
                           help="lower QVF threshold for the green band (svg, ppm)")
            p.add_argument("--red-above", type=float, default=red, action=_StyleFlag,
                           help="upper QVF threshold for the red band (svg, ppm)")
        if p in grids:
            p.add_argument("--cell", type=int, default=render.DEFAULT_CELL, action=_StyleFlag,
                           help="cell size in px (svg) / px per cell (ppm)")
        if p in maps:
            p.add_argument("--overlay", nargs=0, default=False, action=_StyleFlag,
                           help="mark fault angles matching common gates (X,Y,Z,S,T) (svg)")
        p.add_argument("--in", dest="infile", required=True, help="record CSV")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            if args.bench_command == "list":
                return _cmd_bench_list(args)
            return _cmd_bench_build(args)
        if args.command == "campaign":
            return _cmd_campaign_run(args)
        return _cmd_report(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QasmError, NoiseConfigError, RecordFileError, metrics.MetricsError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SimulationError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
