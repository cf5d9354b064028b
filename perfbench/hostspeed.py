"""Host-speed calibration for timings on a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of a
CPU-bound Python process changes from second to second: a fixed loop
was measured switching between about 6 ms and 11 ms several times a
minute.  A 15 s pass then takes anywhere from 15 s to 22 s for the
same work.  Timings are therefore scaled to a reference speed:

* during a pass, ``SIGALRM`` fires every ``INTERVAL`` seconds and the
  handler runs :func:`calibration_loop` once, recording how long it
  took;
* the pass time in reference seconds is the pass's wall time (minus
  the handler's own time) times the mean of ``REFERENCE_S / sample``
  over the samples, i.e. each interval counted at the speed measured
  in it.

The loop is the benchmark's own code and uses nothing from ``repro``,
so a change to the program never changes the reference.  Measured
here, this cut the spread of repeated passes of one workload from
about 10% (raw wall time) to under 2%.
"""

import signal
import statistics
import time

#: seconds between speed samples during a pass
INTERVAL = 0.1
#: reference duration of one calibration loop (about the loop's time
#: on an uncontended core of the host these numbers were tuned on)
REFERENCE_S = 0.001


def calibration_loop(n=2500):
    """Fixed pure-Python work: tuple building, hashing, dict lookups."""
    table = {}
    total = 0
    for i in range(n):
        key = (i & 1023, (i * 7) & 511, i % 13)
        found = table.get(key)
        if found is None:
            table[key] = i
        else:
            total += found
    return total


def loop_seconds():
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager sampling the host's speed while a pass runs.

    After the ``with`` block, :attr:`wall` is the raw wall time and
    :attr:`seconds` the time scaled to the reference speed.  Only the
    main thread may use it (it installs a signal handler).
    """

    def __init__(self):
        self.samples = []
        self.wall = None
        self.seconds = None

    def _tick(self, _signum, _frame):
        self.samples.append(loop_seconds())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        busy = self.wall - sum(self.samples)
        if not self.samples:
            # shorter than one interval: one sample after the fact
            self.samples.append(loop_seconds())
        speed = statistics.fmean(REFERENCE_S / s for s in self.samples)
        self.seconds = busy * speed
        return False


def bracketed(function, repeats=5):
    """Run *function* once between two speed measurements; returns
    (its result, seconds scaled to the reference speed).  For work
    shorter than the sampling interval."""
    before = statistics.median(loop_seconds() for _ in range(repeats))
    start = time.perf_counter()
    result = function()
    wall = time.perf_counter() - start
    after = statistics.median(loop_seconds() for _ in range(repeats))
    return result, wall * REFERENCE_S / statistics.fmean((before, after))
