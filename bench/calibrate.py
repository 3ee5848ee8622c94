"""Machine speed, sampled by a reference kernel while the operations run.

On a shared virtual machine the speed of the host changes by up to a factor
of two, in phases that last from a tenth of a second to minutes, and it
moves CPU time as much as wall time.  A median over the passes of one run
cannot remove a phase that lasts longer than the run, and a reference timed
only between operations misses the phases inside a long operation.  So,
while operations are being timed, an interval timer interrupts the process
every SAMPLE_INTERVAL_S and times a small reference kernel in the signal
handler.  The kernel does not use the package, so a change to the package
cannot move it.  Each operation time is then:

    (wall time - time spent in the handler) * REFERENCE_MS / (mean kernel time near the operation)

that is, what the operation would take on a machine where the kernel takes
REFERENCE_MS.  "Near" is the operation's own span widened by WINDOW_S on each
side, so that a short operation still has a few samples.  The kernel is pure
Python and does what the package does most: a subset BFS over frozensets
and Fraction elimination.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# A round figure for the kernel's time on the 2-vCPU machine the bounds were
# set on, where it took 1.0 ms to 1.9 ms with the load of the host; only the
# scale of the calibrated times depends on it.
REFERENCE_MS = 1.0
SAMPLE_INTERVAL_S = 0.05
WINDOW_S = 0.1
OUTLIER = 3.0
_CERNY_N = 7
_ELIM_ROWS = 6


def reference_kernel() -> int:
    """Subset BFS on the Cerny automaton C_7, then Fraction elimination on 6 x 7."""
    n = _CERNY_N
    delta = (tuple((i + 1) % n for i in range(n)), tuple(1 if i == 0 else i for i in range(n)))
    start = frozenset(range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        successors = []
        for subset in frontier:
            for row in delta:
                image = frozenset(row[q] for q in subset)
                if image not in seen:
                    seen.add(image)
                    successors.append(image)
        frontier = successors
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(_ELIM_ROWS + 1)]
         for i in range(_ELIM_ROWS)]
    for c in range(_ELIM_ROWS):
        pivot = m[c][c]
        for r in range(_ELIM_ROWS):
            if r != c:
                factor = m[r][c] / pivot
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return len(seen) + sum(m[i][i].numerator for i in range(_ELIM_ROWS))


class Speed:
    """Kernel samples taken on a timer, and their use to calibrate timed spans.

    Use as a context manager around the timed code; the timer runs only
    inside it.  Samples are kept for the whole run.
    """

    def __init__(self):
        self.expected = reference_kernel()  # also warms the kernel up
        self.starts: list[float] = []  # when each sample began, in order
        self.seconds: list[float] = []  # the kernel time of each sample
        self.handler_seconds: list[float] = []  # the handler's whole time, kernel included
        self.wrong = 0
        self._previous = None

    def _tick(self, signum, frame):
        # No collection inside the kernel: one would sweep the operation's
        # heap and charge that to the kernel rather than to the operation.
        collecting = gc.isenabled()
        gc.disable()
        entered = perf_counter()
        value = reference_kernel()
        done = perf_counter()
        if collecting:
            gc.enable()
        if value != self.expected:
            self.wrong += 1
        self.starts.append(entered)
        self.seconds.append(done - entered)
        self.handler_seconds.append(perf_counter() - entered)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        # Samples before the first timed span, so that its window is not empty.
        deadline = perf_counter() + 2 * WINDOW_S
        while perf_counter() < deadline:
            reference_kernel()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, start: float, end: float) -> float:
        """The span start..end, less the handler time in it, at reference speed."""
        inside = slice(bisect_left(self.starts, start), bisect_right(self.starts, end))
        busy = sum(self.handler_seconds[inside])
        near = self.seconds[bisect_left(self.starts, start - WINDOW_S):
                            bisect_right(self.starts, end + WINDOW_S)]
        if not near:
            raise RuntimeError("no reference sample near a timed span; is the timer running?")
        # A sample that was preempted is no measure of speed; two speeds
        # differ by less than OUTLIER times.
        typical = statistics.median(near)
        kept = [s for s in near if s <= OUTLIER * typical]
        return (end - start - busy) * (REFERENCE_MS / 1e3) / (sum(kept) / len(kept))

    def median_ms(self) -> float:
        ordered = sorted(self.seconds)
        return ordered[len(ordered) // 2] * 1e3 if ordered else 0.0
