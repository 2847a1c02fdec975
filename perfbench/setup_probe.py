"""The set-up a `qvf campaign run` call pays before it sweeps.

Run as a script in a fresh interpreter (with qvf's ``src`` on
PYTHONPATH), it imports the CLI, builds the named benchmark circuits and,
with ``--noise``, loads the packaged representative noise config.  The
benchmark times the whole process, interpreter start-up included::

    PYTHONPATH=src python3 perfbench/setup_probe.py bv dj grover [--noise]

Then it times the calibration kernel of ``speed.py`` ``KERNEL_RUNS``
times and prints those times as a JSON list, so that the benchmark can
normalise the process's wall time by the speed of the core it ran on.
"""

import json
import sys
import time
from importlib import resources

KERNEL_RUNS = 9


def load_representative_noise():
    from qvf.noise import load_noise_config

    ini = resources.files("qvf") / "data" / "representative_noise.ini"
    return load_noise_config(ini.read_text(encoding="utf-8"))


def set_up(names, noise):
    """(circuits by name, noise model or None), as a campaign call builds them."""
    import qvf.cli  # noqa: F401  (the import a CLI call pays)
    from qvf.benchmarks import DEFAULTS

    circuits = {name: DEFAULTS[name]() for name in names}
    return circuits, load_representative_noise() if noise else None


def kernel_times():
    from speed import kernel

    times = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    args = sys.argv[1:]
    set_up([a for a in args if a != "--noise"], "--noise" in args)
    print(json.dumps(kernel_times()))
