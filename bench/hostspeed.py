"""A fixed reference loop that measures how fast the host runs right now.

The benchmark is run on shared virtual machines whose cores slow down
by up to 2x for minutes at a time, with no steal time reported.  The
per-run fastest or median time then moves with the host, not with the
program (README.md, "Timing on a shared host").  So every timed span is
bracketed by this loop, and reported at the reference speed:

    seconds * REF_SECONDS / mean(loop time before, loop time after)

that is, the time it would have taken on a host that runs the loop in
``REF_SECONDS``.  The loop is plain Python (integer arithmetic, list
indexing, dict stores, tuple allocation), like streamfec's own code.
It is part of the benchmark and must not change between the commits
being compared.
"""

from time import perf_counter

# About the loop's time on an unloaded core of the 2-vCPU Intel Xeon
# virtual machine the benchmark was written on (Python 3.11).  Only the
# ratio of two runs' figures matters; this sets the scale.
REF_SECONDS = 0.02
_ROUNDS = 150_000


def reference_seconds() -> float:
    """Run the reference loop once; return its wall time in seconds."""
    start = perf_counter()
    table = list(range(256))
    seen = {}
    acc = 0
    for i in range(_ROUNDS):
        acc = table[(acc ^ i) & 255] + i % 7
        seen[i & 1023] = (acc, i)
    return perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference loops, at the reference speed."""
    return seconds * REF_SECONDS * 2 / (before + after)
