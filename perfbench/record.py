"""Run every workload several times and write the benchmark record.

Run from the root of a qvf checkout::

    python3 perfbench/record.py --runs 10 --out perfbench/BENCH_1.json

Each workload gets ``--runs`` untraced runs (seeds ``--first-seed``,
``--first-seed + 1``, ...) and ``--trace-runs`` traced runs with one seed,
all through the command in BENCHMARK.json.  The table printed names every
end-to-end metric with its unit, median, quartiles and spread (the
interquartile range as a share of the median) beside the metric's bound.
Traced runs must repeat every call count exactly.  With ``--out`` the
record is written as JSON: machine info, the figures of every run, the
traced per-layer figures, and which end-to-end metric each layer should
move.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_info():
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor() or "unknown"
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    info["caches_per_cpu0"] = caches
    probe = ("import sys, numpy; sys.path.insert(0, 'src'); import qvf; "
             "print(numpy.__version__, qvf.__version__)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.split()
    info["numpy"], info["qvf"] = out
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = "unknown"
    return info


def run_once(bench, workload, seed, trace):
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--out", default=None, help="record JSON path")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sys.path.insert(0, str(HERE))
    from tracer import POOL_WAIT, POOL_WAIT_MOVES, TARGETS, span_name

    from speed import KERNEL_REF_S

    record = {
        "machine": machine_info(),
        "run_seconds": bench["run_seconds"],
        "time_unit": (f"end-to-end times are normalised seconds: wall time scaled to a host "
                      f"where speed.kernel() takes {KERNEL_REF_S} s (see speed.py); "
                      f"per-layer self times are raw wall seconds"),
        "workloads": {},
        "layer_moves": {span_name(m, p): moves for m, p, moves in TARGETS},
    }
    record["layer_moves"][POOL_WAIT] = POOL_WAIT_MOVES
    record["layer_moves"]["trace.overhead_frac"] = (
        "nothing: (traced wall - untraced wall) / untraced wall")
    ok = True
    for workload in workloads:
        why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
        runs, walls = [], []
        for k in range(args.runs):
            result, wall = run_once(bench, workload, args.first_seed + k, 0)
            runs.append(result)
            walls.append(wall)
            ok &= result["correct"] and result["failed"] == 0
        entry = {"why": why, "runs": args.runs, "max_run_wall_s": max(walls, default=0.0),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        print(f"{workload}: {args.runs} runs, longest {entry['max_run_wall_s']:.1f} s, "
              f"{entry['failed']} of {entry['attempted']} operations failed")
        for metric in bench["end_to_end"] if len(runs) > 1 else ():
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "median": median, "q1": q1, "q3": q3, "spread": share, "values": values}
            steady = share < metric["bound"] / 3
            print(f"  {name:14s} median {median:12.6g} {metric['unit']:5s} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {share:7.4f} bound {metric['bound']:.2f}"
                  f"{'' if steady else '  <- above a third of the bound'}")
        traces = [run_once(bench, workload, args.first_seed, 1)[0]
                  for _ in range(args.trace_runs)]
        if traces:
            layers = {n: m["value"] for n, m in traces[0]["metrics"].items()}
            counts = [{n: m["value"] for n, m in t["metrics"].items() if n.endswith(".calls")}
                      for t in traces]
            repeat = all(c == counts[0] for c in counts)
            ok &= repeat and all(t["correct"] for t in traces)
            entry["per_layer"] = layers
            entry["calls_repeat_across_traced_runs"] = repeat
            print(f"  traced: {len(traces)} runs, call counts "
                  f"{'repeat exactly' if repeat else 'DIFFER'}; overhead "
                  f"{layers['trace.overhead_frac']:.3f}")
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
