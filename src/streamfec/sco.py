"""Single-user streaming erasure codes.

Each source symbol is split into ``t`` sub-symbols.  Diagonals of the
sub-symbol grid (stride ``step``, running forward or reversed) carry the
codewords of a low-delay burst block code, whose parity symbols ride
along with later source symbols.  A burst of up to ``b * step`` channel
erasures then meets every diagonal codeword in at most ``b`` positions,
and every erased source symbol is recovered within ``t * step`` slots.

This module holds the parameters and the diagonal geometry; a
diagonal's parities weigh its entries by the burst code's one parity
map, ``BurstParityMatrix.coeff``.  Parameters that are not integers are
refused with a ValueError naming them.  Encoding and decoding go
through ``desco.sco_build``, which wraps a code as a one-component
``CombinedCodec``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .bebc import BurstParityMatrix, make_burst_parity
from .gf import GF, default_field

Var = Tuple[int, int]  # (slot, sub-symbol index)

MAIN = "main"
OFF = "off"


def require_ints(**values) -> None:
    """ValueError naming the first of ``values`` that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def capacity(b: int, t: int) -> Fraction:
    """Best achievable rate for burst length b within delay t (0 if t < b)."""
    if b < 0 or t < 0:
        raise ValueError("b and t must be non-negative")
    if t < b or t == 0:
        return Fraction(0)
    return Fraction(t, t + b)


@dataclass(frozen=True)
class ScoParams:
    """Parameters of a streaming code.

    ``b``/``t`` are the base burst and delay; ``step`` interleaves the
    base code over ``step`` time-decimated sub-streams, yielding a
    (b*step, t*step) code with the same sub-symbol count ``t`` per slot.
    ``orientation`` selects forward ("main") or reversed ("off")
    diagonals.
    """

    b: int
    t: int
    step: int = 1
    orientation: str = MAIN
    field: Optional[GF] = None

    def __post_init__(self):
        require_ints(b=self.b, t=self.t, step=self.step)
        if not 1 <= self.b <= self.t:
            raise ValueError("need 1 <= b <= t")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.orientation not in (MAIN, OFF):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if self.field is None:
            object.__setattr__(self, "field", default_field(self.t, self.b))

    @property
    def rate(self) -> Fraction:
        return Fraction(self.t, self.t + self.b)


def vertical_interleave(base: ScoParams, alpha: int) -> ScoParams:
    """Interleave ``base`` over alpha sub-streams: (b,t) -> (alpha*b, alpha*t).

    The result applies the base code independently to each of the alpha
    time-decimated sub-streams; sub-symbol count per slot is unchanged.
    """
    require_ints(alpha=alpha)
    if alpha < 2:
        raise ValueError("alpha must be an integer >= 2")
    return replace(base, step=base.step * alpha)


def memory_bound(params: ScoParams) -> int:
    """Encoder memory in slots: x[t] depends on source symbols back to t - t*step."""
    return params.t * params.step


class ScoCodec:
    """Diagonal layout of one streaming code.

    The diagonal codeword with index i has information entry k at
    (slot, sub) given by ``info_entry(i, k)``; ``diag_of_parity(slot, j)``
    names the diagonal whose parity j is transmitted in ``slot``.  Parity
    j of a diagonal weighs its entry e by the burst code's parity map,
    ``h.coeff(e, j)``.
    """

    def __init__(self, params: ScoParams, h: Optional[BurstParityMatrix] = None):
        self.params = params
        if h is None:
            h = make_burst_parity(params.t, params.b, params.field)
        if (h.t, h.b) != (params.t, params.b) or h.field != params.field:
            raise ValueError("parity matrix does not match params")
        self.h = h
        self.field = params.field
        self.t = params.t
        self.b = params.b
        self.step = params.step

    # -- diagonal geometry --------------------------------------------

    def info_entry(self, i: int, k: int) -> Var:
        """(slot, sub) of information entry k on diagonal i.

        Entries 0..b-1 are the urgent part: subs 0..b-1 on main
        diagonals, subs t-1..t-b on reversed ones.
        """
        if self.params.orientation == MAIN:
            return (i + k * self.step, k)
        return (i - (self.t - 1 - k) * self.step, self.t - 1 - k)

    def diag_of_parity(self, slot: int, j: int) -> int:
        if self.params.orientation == MAIN:
            return slot - (self.t + j) * self.step
        return slot - self.step * (j + 1)

    def parity_terms(self, slot: int, j: int) -> Dict[Var, int]:
        """Source terms of parity j emitted at ``slot`` (zero coeffs omitted).

        Entries at negative slots are implicit zeros; they are included
        here and filtered by callers that zero-pad the stream start.
        """
        i = self.diag_of_parity(slot, j)
        terms: Dict[Var, int] = {}
        for e in range(self.t):
            c = self.h.coeff(e, j)
            if c:
                terms[self.info_entry(i, e)] = c
        return terms

    def parity_value(self, slot: int, j: int, source: Sequence[Sequence[int]]) -> int:
        f = self.field
        acc = 0
        for (s_slot, sub), coeff in self.parity_terms(slot, j).items():
            if s_slot < 0:
                continue
            acc ^= f.mul(coeff, source[s_slot][sub])
        return acc
