"""The machine's speed, sampled while the benchmark runs.

On a shared 2-vCPU VM (Intel Xeon, Python 3.11) the speed of a process
switches, from one fraction of a second to the next, between states up to
2x apart, and which states a run lands in changes from minute to minute.
No choice of repetitions or quantiles over raw wall times steadies that.
So a fixed probe, the benchmark's own state-pair search on a fixed
31-state automaton (it never calls ufa), runs on an interval timer every
PERIOD seconds, also in the middle of an operation.  An interval of the
run is then reported at reference speed: each stretch of it between two
probes, less the probe run there, is scaled by REFERENCE_S over the probe
time measured around that stretch, and the stretches are summed.

Measured on that VM, the ratio of an operation's time to the probe's
moved by at most 10% between its fast and slow states, where the raw
times moved by 35-42%.  Code that differs most from the probe (large
working sets, string building) follows it least closely.
"""

import gc
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import gen
import ref

PERIOD = 0.05  # seconds between probes
# A time "at reference speed" is what the interval would have taken had the
# probe run in REFERENCE_S.  The constant only sets the scale (the probe's
# median on the VM above is 1.1-1.6 ms); it must not change, or times from
# before and after stop comparing.
REFERENCE_S = 0.0008

_PROBED = gen.random_ambiguous_nfa(30, 2, random.Random("perfbench speed probe"))


def probe():
    return ref.reachable_pairs(_PROBED)


class Speedometer:
    """Runs the probe on SIGALRM every PERIOD seconds while started."""

    def __init__(self):
        self.starts = []  # perf_counter() at each probe's start, ascending
        self.seconds = []  # each probe's duration
        self._previous = None
        self._probing = False

    def _sample(self, signum, frame):
        # A probe must not time a garbage collection of the program's heap,
        # nor a second probe started by the next signal.
        if self._probing:
            return
        self._probing, collecting = True, gc.isenabled()
        gc.disable()
        try:
            began = perf_counter()
            probe()
            self.starts.append(began)
            self.seconds.append(perf_counter() - began)
        finally:
            if collecting:
                gc.enable()
            self._probing = False

    def start(self):
        """Probe once now, so that a speed is known from the start, then
        every PERIOD seconds."""
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def probe_seconds(self, began, ended) -> float:
        """Time the probes took inside [began, ended]."""
        return sum(self.seconds[bisect_left(self.starts, began):bisect_left(self.starts, ended)])

    def _smoothed(self, j) -> float:
        """Probe j's time, as the median of it and its two neighbours, so
        that one probe the host happened to pause rescales nothing."""
        last = len(self.seconds) - 1
        return statistics.median(self.seconds[max(j - 1, 0):min(j + 1, last) + 1])

    def at_reference(self, began, ended) -> float:
        """Seconds [began, ended] would have taken at reference speed, the
        probes run inside it left out.

        Stretch j runs from probe j's start to probe j + 1's, and its speed
        is the mean of those two (smoothed) probe times; before the first
        probe and after the last, the nearest probe's time holds."""
        if not self.seconds:
            raise RuntimeError("no speed probe has run")
        starts, last = self.starts, len(self.seconds) - 1
        total = 0.0
        j = max(bisect_right(starts, began) - 1, -1)
        while True:
            lo = began if j < 0 else max(began, starts[j])
            hi = ended if j == last else min(ended, starts[j + 1])
            if hi > lo:
                own = hi - lo
                if j >= 0 and began <= starts[j] < ended:
                    own -= self.seconds[j]
                if j < 0:
                    speed = self._smoothed(0)
                elif j == last:
                    speed = self._smoothed(last)
                else:
                    speed = (self._smoothed(j) + self._smoothed(j + 1)) / 2
                total += max(own, 0.0) * REFERENCE_S / speed
            if j == last or starts[j + 1] >= ended:
                return total
            j += 1
