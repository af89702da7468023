"""Host-speed calibration for the end-to-end times.

The speed of a small shared host can drift by a factor of 1.5 or more over
minutes, which would swamp any change to the library.  The timed loop
therefore times a fixed, library-independent probe after every job, and
each job's time is scaled to what it would be on a host where the probe
takes its ``nominal`` time.  Library jobs are probed with fixed pure
Python work.  CLI jobs are mostly process start-up, whose speed on such a
host follows the loading of large extension modules rather than the bare
interpreter start, so they are probed with a fresh ``import numpy``.
Neither probe imports poset_forge, so a change to the library cannot move
the calibration.
"""

import statistics
import subprocess
from time import perf_counter

REACH = 5  # a job is scaled by the median of the 2 * REACH + 1 nearest probes


class Loop:
    """Fixed pure Python work, in-process: integer arithmetic, dict and set
    updates, and a small backtracking search (the 7-queens count), which
    together follow the library jobs' speed better than any one of them."""

    nominal = 0.0036  # seconds on a 2.1 GHz Xeon core at its usual speed

    def sample(self):
        start = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        buckets = {}
        for i in range(3000):
            buckets.setdefault(i * 7919 % 1009, set()).add(i)
        sorted(len(v) for v in buckets.values())
        _queens(7, 0, set(), set(), set())
        return perf_counter() - start


def _queens(n, row, cols, up, down):
    """Number of ways to finish placing n non-attacking queens."""
    if row == n:
        return 1
    count = 0
    for c in range(n):
        if c in cols or row + c in up or row - c in down:
            continue
        cols.add(c)
        up.add(row + c)
        down.add(row - c)
        count += _queens(n, row + 1, cols, up, down)
        cols.discard(c)
        up.discard(row + c)
        down.discard(row - c)
    return count


class NumpyImport:
    """``python -c "import numpy"`` in a fresh process, started the way the
    CLI jobs are: same environment, output captured."""

    nominal = 0.2  # seconds on the same host

    def __init__(self, python, env, cwd):
        self.argv = [python, "-c", "import numpy"]
        self.env = env
        self.cwd = cwd

    def sample(self):
        start = perf_counter()
        subprocess.run(self.argv, env=self.env, cwd=self.cwd, capture_output=True, check=True, timeout=60)
        return perf_counter() - start


def factor(probe, samples):
    """Scale factor for work timed alongside ``samples`` of ``probe``."""
    return probe.nominal / statistics.median(samples)


def local_factors(probe, samples):
    """One scale factor per sample, from the median of its neighbours."""
    return [
        factor(probe, samples[max(0, j - REACH) : j + REACH + 1]) for j in range(len(samples))
    ]
