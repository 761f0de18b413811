"""Reference decoders used to cross-check the constructive codecs.

Both decoders take an erasure pattern as the (horizon,) bool mask of
its erased slots (see ``channel``) and return decode times as int
arrays, -1 marking a time that never comes, in the decoder's layouts.

``ml_decode_times`` runs unrestricted incremental Gaussian elimination
over everything the receiver has seen, giving the earliest slot at which
each erased sub-symbol is pinned by *any* linear decoder.  The
``rlc_*`` functions model a random linear code through its information
debt: erased slots accumulate debt, received slots retire it, and all
outstanding source symbols decode together when the debt reaches zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict

import numpy as np

from .gf import IncrementalSystem
from .sco import Var


def ml_decode_times(codec, erased: np.ndarray) -> np.ndarray:
    """Earliest per-sub-symbol determination times for a codec under the
    (horizon,) bool mask ``erased`` of its lost slots.

    ``codec`` is a ``CombinedCodec`` (single- or two-user); the times are
    laid out as its decode log's ``sub_times``, -1 marking never determined.
    Only the coefficient structure matters for determination times, so the
    elimination runs against an all-zero right-hand side.
    """
    n_subs = codec.subs_per_slot
    times = np.arange(len(erased))[:, None].repeat(n_subs, axis=1)
    times[erased] = -1
    unknown = set()
    system = IncrementalSystem(codec.field)
    for t, lost in enumerate(erased.tolist()):
        if lost:
            unknown.update((t, k) for k in range(n_subs))
            continue
        for j in range(codec.parities_per_slot):
            terms: Dict[Var, int] = {}
            for comp in codec.components:
                for ds, sub, coeff in comp.templates[j][1]:
                    var = (t + ds, sub)
                    if var in unknown:
                        prev = terms.get(var, 0)
                        cur = prev ^ coeff
                        if cur:
                            terms[var] = cur
                        else:
                            terms.pop(var, None)
            if not terms:
                continue
            # each variable is solved, and returned, once
            for var in system.add_equation(terms, 0):
                times[var] = t
    return times


# -- random-linear-code information-debt model ---------------------------


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


def rlc_perfect_threshold(rate: Fraction, t: int) -> int:
    """Largest burst a rate-``rate`` code clears entirely within delay t."""
    return math.ceil((1 - Fraction(rate)) * t)


def rlc_partial_threshold(b1: int, t1: int, b2: int) -> int:
    """Largest burst with any within-deadline recovery for the weak receiver.

    The exact value is b2 + b1^2/t1; when that is not an integer the
    floor is returned, since burst lengths are whole slots.
    """
    return math.floor(b2 + Fraction(b1 * b1, t1))


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
