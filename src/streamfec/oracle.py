"""Reference decoders used to cross-check the constructive codecs.

``ml_decode_times`` runs unrestricted incremental Gaussian elimination
over everything the receiver has seen, giving the earliest slot at which
each erased sub-symbol is pinned by *any* linear decoder.  The
``rlc_*`` functions model a random linear code through its information
debt: erased slots accumulate debt, received slots retire it, and all
outstanding source symbols decode together when the debt reaches zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from .channel import ErasurePattern
from .gf import IncrementalSystem
from .sco import Var


def ml_decode_times(codec, pattern: ErasurePattern) -> np.ndarray:
    """Earliest per-sub-symbol determination times for a codec under a pattern.

    ``codec`` is a ``CombinedCodec`` (single- or two-user); the times are
    laid out as its decode log's ``sub_times``, -1 marking never determined.
    Only the coefficient structure matters for determination times, so the
    elimination runs against an all-zero right-hand side.
    """
    n_subs = codec.subs_per_slot
    erased = set(pattern.slots)
    times = np.arange(pattern.horizon)[:, None].repeat(n_subs, axis=1)
    unknown = set()
    system = IncrementalSystem(codec.field)
    for t in range(pattern.horizon):
        if t in erased:
            times[t] = -1
            unknown.update((t, k) for k in range(n_subs))
            continue
        for j in range(codec.parities_per_slot):
            terms: Dict[Var, int] = {}
            for comp in codec.components:
                for var, coeff in comp.terms(t, j).items():
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


@dataclass
class DebtState:
    """Running information debt, in channel-symbol units."""

    rate: Fraction
    debt: Fraction = Fraction(0)
    pending: List[int] = dc_field(default_factory=list)
    decode_time: Dict[int, Optional[int]] = dc_field(default_factory=dict)

    def step(self, slot: int, erased: bool) -> None:
        if erased:
            self.debt += self.rate
            self.pending.append(slot)
            self.decode_time[slot] = None
        else:
            self.decode_time[slot] = slot
            if self.pending:
                self.debt -= (1 - self.rate)
                if self.debt <= 0:
                    for s in self.pending:
                        self.decode_time[s] = slot
                    self.pending.clear()
                    self.debt = Fraction(0)


def rlc_decode_times(rate: Fraction,
                     pattern: ErasurePattern) -> Dict[int, Optional[int]]:
    """Per-slot decode times of a rate-``rate`` random linear code."""
    rate = Fraction(rate)
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    erased = set(pattern.slots)
    state = DebtState(rate)
    for t in range(pattern.horizon):
        state.step(t, t in erased)
    return state.decode_time


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
