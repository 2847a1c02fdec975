"""Host-speed calibration: cancel the host's speed drift out of wall times.

On a shared virtual machine the speed of a vCPU drifts by tens of percent
over seconds and minutes, moving every timing of a run together.  Medians
within a run do not remove a drift that lasts longer than the run.  So
every timed call also times a fixed calibration kernel: twice just before
the call, every ``PERIOD_S`` during it (from a ``SIGALRM`` handler, which
Python runs in the main thread between bytecodes) and twice just after.
The call's time, less the time spent in the kernel during it, is scaled
by ``KERNEL_REF_S`` over the mean kernel time of that call.  The result
reads as seconds on a host where one kernel run takes ``KERNEL_REF_S``
seconds, which is about the kernel's time on the host of the record in
``BENCH_1.json``.

The kernel is independent of qvf: a faster qvf does not make it faster,
so a speed-up of qvf still shows in full.  It resembles qvf's hot code
(small numpy arrays, fancy indexing, dict and string building, CSV
parsing), so it slows down in the same host regimes.  It costs about
2% of a call's time, on both sides of any comparison.
"""

import csv
import io
import signal
import statistics
import time

import numpy as np

#: calibration kernel time that normalised seconds are expressed against
KERNEL_REF_S = 0.0006
#: interval between calibration samples during a call
PERIOD_S = 0.05
#: kernel runs just before and just after each call
BRACKET = 2

_IDX = np.arange(0, 16, 2)
_ROWS = [[str(i), "h", str(i % 5), f"{0.37 * i:.6f}", repr(i / 7)] for i in range(40)]


def kernel():
    """A fixed mix of small numpy updates, dict building and CSV parsing."""
    acc = 0.0
    for _ in range(40):
        amps = np.zeros(16, dtype=complex)
        amps[0] = 1.0
        low = amps[_IDX]
        amps[_IDX] = 0.7 * low + 0.3 * amps[_IDX + 1]
        probs = {format(j, "04b"): float(abs(a)) for j, a in enumerate(amps) if abs(a) > 1e-14}
        acc += sum(probs.values())
    buf = io.StringIO()
    csv.writer(buf).writerows(_ROWS)
    for row in csv.reader(io.StringIO(buf.getvalue())):
        acc += float(row[3]) + float(row[4])
    return acc


class SpeedMeter:
    """Times calls in normalised seconds; see the module docstring."""

    def __init__(self):
        self._samples = None  # kernel times during the current call
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _run_kernel(self):
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        if self._samples is not None:
            samples, self._samples = self._samples, None  # no nested samples
            samples.append(self._run_kernel())
            self._samples = samples

    def time(self, fn):
        """(result, raw wall seconds, normalised seconds) of ``fn()``."""
        around = [self._run_kernel() for _ in range(BRACKET)]
        during = []
        self._samples = during
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S / 2, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            raw = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._samples = None
        around += [self._run_kernel() for _ in range(BRACKET)]
        net = raw - sum(during)
        return result, raw, net * KERNEL_REF_S / statistics.fmean(around + during)
