"""Machine-speed gauge that makes timings comparable across runs.

On a shared host the speed available to one process drifts by up to 2x
within seconds (other tenants, frequency scaling), and the drift moves
every timing alike.  A fixed pure-Python kernel, timed right before and
right after an operation, tracks it.  ``measure`` reports an operation's
seconds at nominal speed: its measured seconds times NOMINAL_S over the
mean of the two readings.  NOMINAL_S is about what a 2-core x86 VM on a
shared host typically takes.  A slower program still reads slower,
because the kernel is the benchmark's own code, not the library's.
"""

import time

NOMINAL_S = 0.0008
KERNEL_REPEATS = 3  # a reading is the fastest of these, which drops interrupts
MAX_AGE_S = 0.05  # an older reading is refreshed before an operation


def _kernel():
    """Dictionary lookups, small lists and float compares in bytecode."""
    table = {}
    total = 0.0
    for i in range(800):
        key = (i & 63, i % 7)
        row = table.get(key)
        if row is None:
            row = table[key] = [float(j) for j in range(8)]
        best = row[0] + total
        for j in range(1, 8):
            candidate = row[j] + 0.5
            if candidate > best:
                best = candidate
        total += best * 1e-6
    return total


class SpeedGauge:
    def __init__(self):
        self.readings = []  # (end time, kernel seconds)
        _kernel()  # a first call runs cold; keep it out of the readings

    def sample(self):
        """Time the kernel now; returns its seconds."""
        clock = time.perf_counter
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            start = clock()
            _kernel()
            best = min(best, clock() - start)
        self.readings.append((clock(), best))
        return best

    def measure(self, fn, *args):
        """Call fn(*args); returns (result, seconds, seconds at nominal speed)."""
        clock = time.perf_counter
        if not self.readings or clock() - self.readings[-1][0] > MAX_AGE_S:
            self.sample()
        before = self.readings[-1][1]
        start = clock()
        result = fn(*args)
        seconds = clock() - start
        after = self.sample() if seconds > MAX_AGE_S else before
        return result, seconds, seconds * 2.0 * NOMINAL_S / (before + after)
