"""Host-speed-normalized time for a benchmark on a shared host.

The benchmark's host is a few vCPUs shared with other tenants, and its
speed flips between a fast and a slow state, about 1.6x apart, every few
seconds, in CPU time as well as in wall time.  A timed interval is
therefore measured in *reference seconds*: the seconds it would have
taken at the host's fast speed.

While a :class:`HostClock` runs, a ``SIGALRM`` timer runs a short probe
kernel in the main thread every ``interval`` seconds.  The probe is a
fixed pure-Python loop plus a few dense solves, it calls nothing of
``ietidg``, so a change to the package cannot move it.  Between two probes,
time is weighted by ``PROBE_REFERENCE_S`` over the mean of the two probe
times, raised to ``SLOWDOWN_EXPONENT``; the probes' own time is left out.
:meth:`HostClock.measure` gives an interval's reference seconds; :func:`raw`
gives its plain seconds.

A process can inherit a signal mask that blocks ``SIGALRM``; the timer
would then never run a probe and every interval would be weighted by the
first and the last probe alone.  :meth:`HostClock.start` therefore unblocks
``SIGALRM`` for the run and :meth:`HostClock.stop` restores the mask.
"""

import bisect
import signal
import time

import numpy as np

# The probe's time on the reference host in its fast state: 2 vCPUs of an
# x86-64 cloud VM, numpy 2.4 with 1 OpenBLAS thread.  The probe reads from
# 3.0 to 3.2 ms there when the host is fast and 4.5 to 5.2 ms when it is slow.
PROBE_REFERENCE_S = 0.0031
INTERVAL_S = 0.2
# When the host turns slow, the solver slows more than the probe: on the
# reference host its time grows as the probe's time to a power of 1.0 to
# 1.4, depending on the stage.  Of the exponents 1.0 to 1.3, 1.2 gave the
# smallest spread over two sets of 30 runs.
SLOWDOWN_EXPONENT = 1.2

_B = np.random.default_rng(20210927).standard_normal((200, 200))
_MATRIX = _B @ _B.T + 200.0 * np.eye(200)


def probe_kernel():
    total = 0
    for i in range(10000):
        total += i * i % 7
    for _ in range(5):
        np.linalg.solve(_MATRIX, _MATRIX[:, 0])
    return total


def raw(start, end):
    """Plain seconds of the interval [start, end]."""
    return end - start


class HostClock:
    """Probes the host's speed on a timer and converts intervals to reference seconds.

    Times are ``time.perf_counter()`` readings.  :meth:`measure` is exact
    only for intervals that end before :meth:`stop`.
    """

    def __init__(self, interval=INTERVAL_S, reference=PROBE_REFERENCE_S,
                 exponent=SLOWDOWN_EXPONENT):
        self.interval = interval
        self.reference = reference
        self.exponent = exponent
        self.starts, self.ends, self.times = [], [], []
        self._busy = False
        self._previous = None
        self._mask = None
        self.blocked_at_start = None

    def _probe(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._mask = signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        self.blocked_at_start = signal.SIGALRM in self._mask
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        signal.pthread_sigmask(signal.SIG_SETMASK, self._mask)
        self._probe()

    def probed_enough(self, start, end):
        """Whether the timer ran during [start, end].

        Signals that arrive during one long call into C run the handler
        once, so a working timer can probe well below its rate; a tenth
        of the rate tells it from a timer that never fires.
        """
        inside = sum(start <= t <= end for t in self.starts)
        return inside >= 0.1 * (end - start) / self.interval

    def measure(self, start, end):
        """Reference seconds of the interval [start, end], probe time excluded."""
        starts, ends, times = self.starts, self.ends, self.times
        last = len(times) - 1
        total = 0.0
        # Gap k runs from the end of probe k to the start of probe k + 1;
        # gap -1 is everything before the first probe.
        for k in range(max(bisect.bisect_left(ends, start) - 1, -1), last + 1):
            lo = ends[k] if k >= 0 else start
            hi = starts[k + 1] if k < last else end
            if lo >= end:
                break
            lo, hi = max(lo, start), min(hi, end)
            if hi > lo:
                probe_s = (times[max(k, 0)] + times[min(k + 1, last)]) / 2
                total += (hi - lo) * (self.reference / probe_s) ** self.exponent
        return total
