"""The timing loop of the linearity gates.

A gate times a function on a small and a large input, alternating the
two, and bounds the median of the per-pair ratios, so that a burst of
load on a shared machine does not decide it.
"""

import gc
import time


def timed(run, arg, collect=False):
    """Seconds that ``run(arg)`` takes, after a ``gc.collect()`` if
    ``collect``."""
    if collect:
        gc.collect()
    begin = time.perf_counter()
    run(arg)
    return time.perf_counter() - begin


def pair_ratios(run, small, large, calls=1, collect_per_call=True):
    """Five ratios of the time ``run`` takes on ``large`` to the
    time it takes on ``small``.

    Each side of a pair sums ``calls`` calls, the two sizes alternating
    call by call, so both sides see the same load.  ``gc.collect()``
    runs before every call if ``collect_per_call``, else once before
    each pair.
    """
    ratios = []
    for _ in range(5):
        if not collect_per_call:
            gc.collect()
        t_small = t_large = 0.0
        for _ in range(calls):
            t_small += timed(run, small, collect_per_call)
            t_large += timed(run, large, collect_per_call)
        ratios.append(t_large / t_small)
    return ratios
