"""The host-speed probe, and timings scaled by it.

The measuring host runs a process at speeds up to 2x apart that change
every few seconds and drift over minutes (NOTES.md, "Host noise"); the
program and the benchmark's own code slow down roughly together.  So the
process that runs a timed region also times ``probe``, a fixed sum of
fractions like the program's own arithmetic, just before and just after
the region (and, for a CLI command, every SAMPLE_EVERY_S during it), and
the benchmark reports the region at the reference speed: its time x the
mean of REFERENCE_S / probe time over those probes.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the probe's time at the reference speed, a round figure near the probe's
# time at the fast speed of the host that measured the baseline (NOTES.md)
REFERENCE_S = 0.008
PROBE_TERMS = 3000
# interval of the probes taken while a CLI command runs
SAMPLE_EVERY_S = 0.25


def probe() -> float:
    """Seconds taken by a fixed sum of fractions."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def scaled(elapsed: float, probes: list[float]) -> float:
    """``elapsed`` at the reference speed, from the probes timed around
    and during it."""
    return elapsed * sum(REFERENCE_S / p for p in probes) / len(probes)
