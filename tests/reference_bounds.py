"""The paper's converse channel and random-linear-code thresholds: the
references the tests hold the codecs and the debt model against.

``periodic_pattern`` is the periodic channel of the rate-converse
argument, as the (horizon,) bool mask of its erased slots (see
``streamfec.channel``).  The ``rlc_*_threshold`` functions are the burst
lengths up to which the debt model of ``streamfec.oracle`` recovers
everything, or anything, within a deadline.
"""

import math
from fractions import Fraction

import numpy as np

HIGH_DELAY = "high-delay"
LOW_DELAY = "low-delay"


def periodic_pattern(b1, b2, t2, regime, periods, t1=None):
    """Periodic channel: b2 erasures at the head of every period.

    High-delay regime: period (alpha-1)*b1 + t2 = b2 - b1 + t2.
    Low-delay regime: period t1 + b2 (t1 required).
    """
    if b2 <= b1:
        raise ValueError("need b2 = alpha * b1 with alpha > 1")
    if regime == HIGH_DELAY:
        period = b2 - b1 + t2
    elif regime == LOW_DELAY:
        if t1 is None:
            raise ValueError("low-delay regime needs t1")
        period = t1 + b2
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if period <= b2:
        raise ValueError("period not longer than its erasure run")
    erased = np.zeros((periods, period), dtype=bool)
    erased[:, :b2] = True
    return erased.reshape(-1)


def rlc_perfect_threshold(rate, t):
    """Largest burst a rate-``rate`` code clears entirely within delay t."""
    return math.ceil((1 - Fraction(rate)) * t)


def rlc_partial_threshold(b1, t1, b2):
    """Largest burst with any within-deadline recovery for the weak receiver.

    The exact value is b2 + b1^2/t1; when that is not an integer the
    floor is returned, since burst lengths are whole slots.
    """
    return math.floor(b2 + Fraction(b1 * b1, t1))
