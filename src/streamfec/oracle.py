"""The random-linear-code baseline of the loss experiments.

A random linear code is modelled through its information debt: erased
slots accumulate debt, received slots retire it, and all outstanding
source symbols decode together when the debt reaches zero.
``rlc_burst_losses`` is its closed form for one isolated burst, which
``simulate`` reads; ``rlc_decode_times`` runs the model over an erasure
pattern, the (horizon,) bool mask of its erased slots (see ``channel``),
for an exact loss curve in place of ``simulate``'s approximate one.
The elimination oracle and the debt model's thresholds are references
of the tests (``tests/reference_decoder.py``,
``tests/reference_bounds.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def rlc_decode_times(rate: Fraction, erased: np.ndarray) -> np.ndarray:
    """Per-slot decode times of a rate-``rate`` random linear code under
    the (horizon,) bool mask ``erased``, laid out as ``StreamLog.slot_times``
    (-1 for a slot never decoded).  Debt is in channel-symbol units."""
    rate = Fraction(rate)
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    times = np.arange(len(erased))
    times[erased] = -1
    debt, pending = Fraction(0), []
    for t, lost in enumerate(erased.tolist()):
        if lost:
            debt += rate
            pending.append(t)
        elif pending:
            debt -= 1 - rate
            if debt <= 0:
                times[pending] = t
                debt, pending = Fraction(0), []
    return times


def rlc_burst_losses(rate: Fraction, length: int, deadline: int) -> int:
    """Symbols of an isolated length-``length`` burst missing deadline.

    Closed form: the debt L*R clears after ceil(L*R/(1-R)) clean slots,
    so slot j of the burst decodes at L-1+nu with delay L-1+nu-j.
    """
    if length <= 0:
        return 0
    rate = Fraction(rate)
    nu = math.ceil(length * rate / (1 - rate))
    return max(0, min(length, nu + length - 1 - deadline))
