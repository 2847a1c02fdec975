"""qvf benchmark: campaign-to-report pipelines driven through ``qvf.cli.main``.

Run from the root of a qvf checkout::

    python3 perfbench/run.py --workload exact --seed 1 --seconds 32 --trace 0

One pass of a workload is what a user does: ``qvf campaign run`` for each
of its circuits, then the five report kinds on every CSV written
(heatmap svg, perqubit ppm, delta svg against the next CSV, timeline at
theta=90 phi=0, hist).  Each CLI call runs in this process, so the pass
times exclude interpreter start-up; ``setup_s`` measures that separately
in fresh interpreters.  Passes repeat until the next one would end after
``--seconds``.

The host's speed drifts by tens of percent over seconds and minutes, so
every timing is taken in normalised seconds (see ``speed.py``): the wall
time of a call scaled by how fast a fixed calibration kernel ran before,
during and after it.  ``campaign_s`` and ``report_s`` sum, over the CLI
calls of their phase, each call's median across passes.  The printed
lines give the raw wall seconds beside them.

Every CLI call and every output check is one operation; a nonzero exit
code, an exception or a failed check counts as failed and the run goes
on.  Checks run outside the timed region on the first pass's outputs;
every later pass must reproduce those files byte for byte.

``--trace 1`` runs traced passes and reports per-layer call counts and
self times in raw seconds (see ``tracer.py``).  The last stdout line is
one JSON object: correct, attempted, failed and the metrics.
"""

import argparse
import contextlib
import filecmp
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CsvCheck
from setup_probe import set_up
from speed import KERNEL_REF_S, SpeedMeter
from tracer import POOL_WAIT, TARGETS, Tracer, qvf_modules, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
SETUP_PROBES = 21


@dataclass(frozen=True)
class Workload:
    circuits: tuple
    mode: str
    grid_step: int
    noise: bool
    jobs: object  # None: the CLI default, all cores
    shots: int = 1024

    def campaign_seed(self, seed):
        """The campaigns' --seed: the run's seed in sampled mode, else the default 0."""
        return seed if self.mode == "sampled" else 0


WORKLOADS = {
    # The plain single-process baseline: the state-vector path dominates
    # (apply_gate, plus inject() rebuilding a Circuit per record); noise idle.
    "exact": Workload(("bv", "dj", "grover"), "exact", 15, False, 1),
    # Same simulator work plus one seeded multinomial draw per record, and the
    # only workload that runs through the process pool (default --jobs).
    "sampled": Workload(("bv", "dj", "grover"), "sampled", 15, False, None),
    # The density-matrix path at 16x16 (dj) and 4x4 (grover); apply_gate idle.
    "noisy": Workload(("dj", "grover"), "exact", 30, True, 1),
}


def end_to_end_units():
    """Name -> unit of every end-to-end metric, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}


def qvf_caches():
    """Every functools cache in the loaded qvf modules, by qualified name."""
    return {
        f"{name}.{attr}": value
        for name, module in qvf_modules().items()
        for attr, value in list(vars(module).items())
        if callable(getattr(value, "cache_clear", None))
    }


class Ledger:
    """Counts operations and failures; failures are reported on stderr."""

    def __init__(self, cli, meter):
        self.cli = cli
        self.meter = meter  # None: time in raw wall seconds (traced runs)
        self.attempted = 0
        self.failed = 0
        self.cache_hits = {}  # qvf cache -> hits summed over calls

    def fail(self, label, detail):
        self.failed += 1
        print(f"FAILED {label}: {detail}", file=sys.stderr)

    def call(self, argv):
        """One in-process CLI call: ((normalised, raw) seconds, captured stdout).

        Every functools cache in qvf is emptied first, so that each call starts
        from the cold caches of a fresh ``qvf`` process.  Without a meter both
        times are the raw wall time.
        """
        self.attempted += 1
        caches = qvf_caches()
        for cache in caches.values():
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()

        def run():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # the run goes on after a crash
                return repr(exc)

        rc, seconds = self.timed(run)
        for name, cache in caches.items():
            self.cache_hits[name] = self.cache_hits.get(name, 0) + cache.cache_info().hits
        if rc != 0:
            self.fail("qvf " + " ".join(argv), f"exit {rc} {err.getvalue().strip()}")
        return seconds, out.getvalue()

    def timed(self, fn):
        """(result, (normalised, raw) seconds) of ``fn()``."""
        if self.meter is not None:
            result, raw, norm = self.meter.time(fn)
            return result, (norm, raw)
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        return result, (raw, raw)

    def check(self, label, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed or crashed check counts, the run goes on
            self.fail(label, repr(exc))
            return None


def campaign_argv(wl, seed, name, out, jobs):
    argv = ["campaign", "run", name, "--mode", wl.mode, "--grid-step", str(wl.grid_step),
            "--out", str(out)]
    if wl.mode == "sampled":
        argv += ["--shots", str(wl.shots), "--seed", str(wl.campaign_seed(seed))]
    if wl.noise:
        argv += ["--noise", "representative"]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    return argv


def report_argvs(csv, other, out):
    stem = out / csv.stem
    return {
        "heatmap": ["report", "heatmap", "--in", str(csv), "--out", f"{stem}_heatmap.svg"],
        "perqubit": ["report", "perqubit", "--in", str(csv), "--format", "ppm",
                     "--out", f"{stem}_perqubit.ppm"],
        "delta": ["report", "delta", "--in", str(csv), "--in-b", str(other),
                  "--out", f"{stem}_delta.svg"],
        "timeline": ["report", "timeline", "--in", str(csv), "--theta", "90", "--phi", "0",
                     "--out", f"{stem}_timeline.svg"],
        "hist": ["report", "hist", "--in", str(csv), "--out", f"{stem}_hist.svg"],
    }


@dataclass
class Pass:
    calls: dict  # "campaign <circuit>" / "report <kind> <circuit>" -> (norm, raw) s
    rows: int
    printed: dict  # circuit -> stdout of its hist report


def run_pass(ledger, wl, seed, out, jobs):
    """One campaign-to-report pass; only the CLI calls are timed."""
    out.mkdir(parents=True)
    csvs = [out / f"{name}.csv" for name in wl.circuits]
    calls = {}
    for name, csv in zip(wl.circuits, csvs):
        calls[f"campaign {name}"] = ledger.call(campaign_argv(wl, seed, name, csv, jobs))[0]
    printed = {}
    for i, (name, csv) in enumerate(zip(wl.circuits, csvs)):
        for kind, argv in report_argvs(csv, csvs[(i + 1) % len(csvs)], out).items():
            seconds, stdout = ledger.call(argv)
            calls[f"report {kind} {name}"] = seconds
            if kind == "hist":
                printed[name] = stdout
    rows = 0
    for csv in csvs:
        if csv.exists():
            with open(csv, encoding="utf-8") as fh:
                rows += max(0, sum(1 for _ in fh) - 2)
    return Pass(calls, rows, printed)


def phase_seconds(passes, phase="", raw=False):
    """Sum over a phase's CLI calls of each call's median time across passes.

    Normalised seconds, or raw wall seconds with ``raw``.
    """
    samples = {}
    for p in passes:
        for label, seconds in p.calls.items():
            if label.startswith(phase):
                samples.setdefault(label, []).append(seconds[raw])
    return sum(statistics.median(v) for v in samples.values())


def same_files(a, b):
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        raise AssertionError(f"{b} holds other files than {a}")
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    if mismatch or errors:
        raise AssertionError(f"files differ between passes: {mismatch + errors}")


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_reports(out, name, qubits):
    stem = out / name
    expected = {f"{stem}_{k}.svg": b"<svg" for k in ("heatmap", "delta", "timeline", "hist")}
    expected.update({f"{stem}_perqubit_q{q}.ppm": b"P6\n" for q in qubits})
    for path, magic in expected.items():
        with open(path, "rb") as fh:
            head = fh.read(len(magic))
        if head != magic:
            raise AssertionError(f"{path} does not start with {magic!r}")


def check_outputs(ledger, wl, seed, first, out):
    """Every output check on the first pass's files."""
    oracles = ledger.check("load tests/oracles.py", load_oracles)
    circuits, model = set_up(wl.circuits, wl.noise)
    for i, name in enumerate(wl.circuits):
        csv = out / f"{name}.csv"
        chk = ledger.check(f"{name}: read {csv.name}", CsvCheck, csv, circuits[name], wl,
                           wl.campaign_seed(seed), oracles, model)
        if chk is None:
            continue
        for label, fn in chk.structural():
            ledger.check(f"{name}: {label}", fn)
        for index in chk.sample_rows(seed):
            ledger.check(f"{name}: recompute row {index}", chk.row_matches, index)
        ledger.check(f"{name}: report files", check_reports, out, name, chk.qubits())
        ledger.check(f"{name}: hist mean", chk.hist_mean, first.printed.get(name, ""))
        if i == 0:
            grid_csv = out / f"{name}_heatmap_cells.csv"
            ledger.call(["report", "heatmap", "--in", str(csv), "--format", "csv",
                         "--out", str(grid_csv)])
            ledger.check(f"{name}: heatmap cells", chk.heatmap_cells, grid_csv)


def measure_setup(ledger, wl):
    """(normalised, raw) seconds of fresh interpreters doing a CLI call's set-up.

    Each probe process also times the calibration kernel after its set-up;
    its wall time less those kernel runs is normalised by their fastest run,
    which measures the core the probe ran on.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "setup_probe.py"), *wl.circuits]
    if wl.noise:
        argv.append("--noise")
    times = []
    for _ in range(SETUP_PROBES):
        ledger.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        raw = time.perf_counter() - start
        try:
            kernels = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            kernels = None
        if proc.returncode != 0 or not kernels:
            ledger.fail("setup probe", proc.stderr.strip() or "no kernel times")
            times.append((raw, raw))  # the run goes on; it already counts as failed
            continue
        times.append(((raw - sum(kernels)) * KERNEL_REF_S / min(kernels), raw - sum(kernels)))
    return times


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_timed(ledger, wl, seed, seconds, work):
    """End-to-end metrics: {name: (value, raw wall value or None, sample count)}."""
    passes = []
    start = time.perf_counter()
    while True:
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(ledger, wl, seed, out, wl.jobs))
        if len(passes) > 1:
            ledger.check(f"pass {len(passes) - 1} repeats pass 0", same_files, work / "pass0", out)
            shutil.rmtree(out)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    rss = peak_rss_mb()  # before any set-up probe adds a child
    check_outputs(ledger, wl, seed, passes[0], work / "pass0")
    setup = measure_setup(ledger, wl)
    n = len(passes)
    campaign = [phase_seconds(passes, "campaign", raw) for raw in (False, True)]
    return {
        "campaign_s": (*campaign, n),
        "records_per_s": (*(passes[0].rows / c for c in campaign), n),
        "report_s": (*(phase_seconds(passes, "report", raw) for raw in (False, True)), n),
        "setup_s": (*(statistics.median(s[raw] for s in setup) for raw in (0, 1)), len(setup)),
        "peak_rss_mb": (rss, None, 1),
    }


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, path, _ in TARGETS:
        name = span_name(module, path)
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name == "simulator.apply_gate":
            out.append((f"{name}.per_record", "calls/record", "lower"))
        if name == "noise.expand_operator":
            out.append((f"{name}.cache_hit_frac", "ratio", "higher"))
    out += [(f"{POOL_WAIT}.calls", "count", "lower"), ("injector.pool_wait_s", "s", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    return out


EXPAND_CACHE = "qvf.noise._expand_cached"


def traced_pass(ledger, tracer, wl, seed, out, jobs):
    hits = ledger.cache_hits.get(EXPAND_CACHE, 0)
    tracer.reset()
    tracer.install()
    try:
        p = run_pass(ledger, wl, seed, out, jobs)
    finally:
        tracer.uninstall()
    return p, tracer.totals(), ledger.cache_hits.get(EXPAND_CACHE, 0) - hits


def run_traced(ledger, wl, seed, seconds, work, workload):
    """Traced passes until the time is up; per-layer metrics from them.

    The first traced pass runs first, so it meets the cold caches a fresh CLI
    process has.  On a workload that uses the process pool, the worker-side
    split comes from an extra serial (--jobs 1) traced pass over the same
    inputs; the pooled traced pass gives injector.pool_wait and the overhead.

    ``trace.overhead_frac`` is the tracer's cost over the untraced wall time
    of a pass: the spans of the first traced pass times the cost of one span,
    timed on a no-op in this process, over that pass's wall time less that
    cost.  Timing a separate untraced pass instead would mostly measure the
    host's drift between the two passes.
    """
    tracer = Tracer()
    pooled = wl.jobs != 1
    traced, split = [], []
    reference = work / "t0"

    def compare(out):
        ledger.check(f"{out.name} repeats {reference.name}", same_files, reference, out)
        shutil.rmtree(out)

    start = time.perf_counter()
    while True:
        k = len(traced)
        traced.append(traced_pass(ledger, tracer, wl, seed, work / f"t{k}", wl.jobs))
        if k == 0:
            TRACES.mkdir(exist_ok=True)
            tracer.save(TRACES / f"trace-{workload}.npz")
        else:
            compare(work / f"t{k}")
        if pooled:
            split.append(traced_pass(ledger, tracer, wl, seed, work / f"s{k}", 1))
            compare(work / f"s{k}")
        else:
            split.append(traced[-1])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break
    check_outputs(ledger, wl, seed, traced[0][0], reference)

    metrics = {}
    first = split[0][1]
    for name in tracer.names[:-1]:
        metrics[f"{name}.calls"] = first[name][0]
        metrics[f"{name}.self_s"] = statistics.median(t[name][1] for _, t, _ in split)
    records = split[0][0].rows
    metrics["simulator.apply_gate.per_record"] = (
        first["simulator.apply_gate"][0] / records if records else 0.0)
    expand_calls = first["noise.expand_operator"][0]
    hits = split[0][2]
    metrics["noise.expand_operator.cache_hit_frac"] = hits / expand_calls if expand_calls else 0.0
    metrics[f"{POOL_WAIT}.calls"] = traced[0][1][POOL_WAIT][0]
    metrics["injector.pool_wait_s"] = statistics.median(t[POOL_WAIT][1] for _, t, _ in traced)
    spans = sum(calls for calls, _ in traced[0][1].values())
    cost = spans * tracer.span_cost()
    metrics["trace.overhead_frac"] = cost / (phase_seconds([traced[0][0]], raw=True) - cost)
    notes = {
        "passes": len(traced),
        "spans": spans,
        "absent": sorted(tracer.absent),
        "split": "serial traced pass (--jobs 1)" if pooled else "traced pass",
        "parent_under_pool": traced[0][1] if pooled else None,
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qvf" / "__init__.py").is_file():
        print(f"error: no qvf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from qvf import cli

    wl = WORKLOADS[args.workload]
    ledger = Ledger(cli, None if args.trace else SpeedMeter())
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, notes = run_traced(ledger, wl, args.seed, args.seconds, work, args.workload)
        else:
            stats = run_timed(ledger, wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        print(f"{args.workload}: {notes['passes']} traced pass(es); function spans "
              f"from the {notes['split']}; {notes['spans']} spans in the first")
        for name in units:
            print(f"  {name:48s} {metrics[name]:>14.6g} {units[name]}")
        for name in notes["absent"]:
            print(f"  absent: {name} (reported as 0 calls)")
        if notes["parent_under_pool"]:
            print("parent spans under the pool (first pooled traced pass):")
            for name, (calls, self_s) in notes["parent_under_pool"].items():
                if calls:
                    print(f"  {name:48s} {calls:>9d} calls {self_s:>10.4f} s self")
        result_metrics = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
    else:
        units = end_to_end_units()
        for name, (value, raw, n) in stats.items():
            wall = "" if raw is None else f"  (raw wall {raw:.6g} {units[name]})"
            print(f"{args.workload}: {name:14s} median {value:.6g} {units[name]} (n={n}){wall}")
        result_metrics = {n: {"value": stats[n][0], "unit": u} for n, u in units.items()}
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{args.workload}: failed_ops_frac {frac:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
