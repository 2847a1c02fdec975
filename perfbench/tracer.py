"""Outside-in span tracer for the qvf layers.

The tracer never edits qvf's source.  It replaces each traced function with
a timing wrapper in every qvf module namespace that holds a reference to
it, because modules import names directly (``injector`` calls its own
``measured_probabilities`` binding, ``cli`` its own ``run_campaign``), so
patching only the defining module would miss those calls.  Methods are
patched on their class.  A traced name that no longer exists is reported
as absent with 0 calls.

Spans are kept in memory as (name, start, end, parent) and written out
once, after the traced pass.  A span's self time is its duration minus
the durations of its direct children; spans nest strictly because every
wrapped call returns before its caller does.

Generator functions (``injector.run_campaign``) get one span per
``next()``, which is where the per-record work happens.  ``map`` on the
process pool that ``injector`` looks up is wrapped the same way, giving
``injector.pool_wait``: time the parent spends blocked on workers.  Spans
recorded inside pool workers stay in the workers and are lost.
"""

import concurrent.futures
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute path, what it should move) of every traced function,
#: in report order.  The third field says which end-to-end metric a change
#: to that layer should move, on which workload.
TARGETS = (
    ("cli", "main",
     "campaign_s on all workloads (argument parsing, summary loop); "
     "its share grows once the kernels are fast"),
    ("injector", "run_campaign",
     "campaign_s and records_per_s on exact and sampled (the per-record loop, "
     "one span per next()); not noisy"),
    ("injector", "inject",
     "campaign_s and records_per_s on exact and sampled; not noisy"),
    ("circuit", "Circuit.__post_init__",
     "campaign_s and records_per_s on exact and sampled (re-validation per "
     "record); not noisy"),
    ("simulator", "apply_gate",
     "campaign_s and records_per_s on exact and sampled; idle on noisy"),
    ("simulator", "measured_probabilities",
     "campaign_s and records_per_s on exact and sampled; idle on noisy"),
    ("simulator", "sample_vector",
     "campaign_s on sampled only (one SeedSequence and multinomial per record)"),
    ("simulator", "distribution_from_vector",
     "campaign_s on all workloads, largest on exact"),
    ("metrics", "qvf_of_distribution",
     "campaign_s on all workloads, largest on exact"),
    ("noise", "measured_probabilities_noisy",
     "campaign_s on noisy; zero elsewhere"),
    ("noise", "evolve_density",
     "campaign_s on noisy; zero elsewhere"),
    ("noise", "expand_operator",
     "campaign_s on noisy; zero elsewhere"),
    ("noise", "DensityMatrix.validate",
     "campaign_s on noisy; zero elsewhere"),
    ("noise", "apply_readout_flips",
     "campaign_s on noisy; zero elsewhere"),
    ("records", "write_records",
     "campaign_s on all workloads (CSV formatting, net of the record "
     "generator's children); its share grows once the kernels are fast"),
    ("records", "read_records",
     "report_s; largest on exact and sampled, small on noisy"),
    ("metrics", "aggregate_heatmap",
     "report_s; largest on exact and sampled (312-cell grids), small on noisy"),
    ("metrics", "delta_qvf", "report_s"),
    ("metrics", "timeline", "report_s"),
    ("metrics", "histogram_stats", "report_s"),
    ("render", "render_heatmap_svg", "report_s"),
    ("render", "render_grid_ppm", "report_s"),
    ("render", "render_delta_svg", "report_s"),
    ("render", "render_timeline_svg", "report_s"),
    ("render", "render_hist_svg", "report_s"),
)

#: ``map`` on the pool injector looks up: the parent blocked on workers.
POOL_WAIT = "injector.pool_wait"
POOL_WAIT_MOVES = "campaign_s on sampled only; removing the pool shows here"


def span_name(module, path):
    return f"{module}.{path}"


def qvf_modules():
    """The loaded qvf package and its submodules, by module name."""
    return {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qvf" or name.startswith("qvf."))
    }


class _TimedIter:
    """Iterator proxy recording one span per ``next()``."""

    def __init__(self, tracer, name_id, inner):
        self._tracer = tracer
        self._name_id = name_id
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer._open(self._name_id)
        try:
            return next(self._inner)
        finally:
            self._tracer._close(idx)


class Tracer:
    """Installs wrappers into the loaded qvf modules and records spans."""

    def __init__(self):
        self.names = [span_name(m, p) for m, p, _ in TARGETS] + [POOL_WAIT]
        self.absent = set()
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack = [-1]

    def _open(self, name_id):
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name_id, fn):
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                return _TimedIter(self, name_id, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def _replace_everywhere(self, original, replacement):
        for mod in qvf_modules().values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every traced function that exists; remember the absent ones."""
        self.absent = set()
        for name_id, (module, path, _) in enumerate(TARGETS):
            mod = sys.modules.get(f"qvf.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = None
            if owner is not None:
                fn = (vars(owner).get(attr) if owner_name
                      else getattr(owner, attr, None))
            if not callable(fn):
                self.absent.add(self.names[name_id])
                continue
            wrapped = self._wrap(name_id, fn)
            if owner_name:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                self._replace_everywhere(fn, wrapped)
        self._install_pool_wait()

    def _install_pool_wait(self):
        base = concurrent.futures.ProcessPoolExecutor
        tracer = self
        pool_id = len(TARGETS)

        class TimedPool(base):
            def map(self, *args, **kwargs):
                return _TimedIter(tracer, pool_id, super().map(*args, **kwargs))

        self._replace_everywhere(base, TimedPool)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def spans(self):
        """Recorded spans as numpy arrays (name id, start, end, parent)."""
        return tuple(
            np.frombuffer(a, dtype=a.typecode).copy()
            for a in (self._name, self._start, self._end, self._parent)
        )

    def totals(self):
        """Per traced name: (calls, self seconds)."""
        name, start, end, parent = self.spans()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)
        }

    def span_cost(self, n=20000, repeats=5):
        """Seconds one span adds to a call: a wrapped no-op against a bare one.

        Leaves no spans behind.
        """
        def noop():
            return None

        wrapped = self._wrap(0, noop)
        best = {}
        for fn in (noop, wrapped) * repeats:
            self.reset()
            start = perf_counter()
            for _ in range(n):
                fn()
            best[fn] = min(best.get(fn, float("inf")), perf_counter() - start)
        self.reset()
        return max(0.0, best[wrapped] - best[noop]) / n

    def save(self, path):
        name, start, end, parent = self.spans()
        np.savez(path, names=np.asarray(self.names), name=name, start=start,
                 end=end, parent=parent)
