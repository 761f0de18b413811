"""Single-user streaming erasure codes.

Each source symbol is split into ``t`` sub-symbols.  Diagonals of the
sub-symbol grid (stride ``step``, running forward or reversed) carry the
codewords of a low-delay burst block code, whose parity symbols ride
along with later source symbols.  A burst of up to ``b * step`` channel
erasures then meets every diagonal codeword in at most ``b`` positions,
and every erased source symbol is recovered within ``t * step`` slots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bebc import BurstParityMatrix, make_burst_parity
from .decoder import (Component, StreamLog, encode_symbols, source_array,
                      staged_decode)
from .gf import GF, default_field

Var = Tuple[int, int]  # (slot, sub-symbol index)

MAIN = "main"
OFF = "off"


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
        if not 1 <= self.b <= self.t:
            raise ValueError("need 1 <= b <= t")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.orientation not in (MAIN, OFF):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if self.field is None:
            object.__setattr__(self, "field", default_field(self.t, self.b))

    @property
    def sub_symbols(self) -> int:
        return self.t

    @property
    def parities_per_slot(self) -> int:
        return self.b

    @property
    def rate(self) -> Fraction:
        return Fraction(self.t, self.t + self.b)


def vertical_interleave(base: ScoParams, alpha: int) -> ScoParams:
    """Interleave ``base`` over alpha sub-streams: (b,t) -> (alpha*b, alpha*t).

    The result applies the base code independently to each of the alpha
    time-decimated sub-streams; sub-symbol count per slot is unchanged.
    """
    if alpha < 2:
        raise ValueError("alpha must be an integer >= 2")
    return replace(base, step=base.step * alpha)


def memory_bound(params: ScoParams) -> int:
    """Encoder memory in slots: x[t] depends on source symbols back to t - t*step."""
    return params.t * params.step


def split_urgent(params: ScoParams, subs: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Partition a source symbol into (urgent, non-urgent) sub-symbols.

    Urgent sub-symbols occupy the first b diagonal-codeword entries:
    subs 0..b-1 on main diagonals, subs t-1..t-b on reversed ones.
    """
    t, b = params.t, params.b
    if len(subs) != t:
        raise ValueError(f"expected {t} sub-symbols")
    if params.orientation == MAIN:
        return tuple(subs[:b]), tuple(subs[b:])
    return (tuple(subs[t - 1 - j] for j in range(b)),
            tuple(subs[t - 1 - e] for e in range(b, t)))


class ChannelSymbol(NamedTuple):
    subs: Tuple[int, ...]
    parities: Tuple[int, ...]

    def flat(self) -> Tuple[int, ...]:
        return self.subs + self.parities


class ScoCodec:
    """Encoder/decoder layout for one streaming code.

    The diagonal codeword with index i has information entry k at
    (slot, sub) given by ``info_entry(i, k)`` and parity j transmitted at
    ``parity_slot(i, j)``.  Parity values follow the burst block code's
    systematic parity map.
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
        """(slot, sub) of information entry k on diagonal i."""
        if self.params.orientation == MAIN:
            return (i + k * self.step, k)
        return (i - (self.t - 1 - k) * self.step, self.t - 1 - k)

    def parity_slot(self, i: int, j: int) -> int:
        if self.params.orientation == MAIN:
            return i + (self.t + j) * self.step
        return i + self.step * (j + 1)

    def diag_of_parity(self, slot: int, j: int) -> int:
        if self.params.orientation == MAIN:
            return slot - (self.t + j) * self.step
        return slot - self.step * (j + 1)

    def entry_coeff(self, e: int, j: int) -> int:
        """Coefficient of diagonal entry e in parity j (u_j + n . H column j)."""
        if e == j:
            return 1
        if e >= self.b:
            return self.h.rows[e - self.b][j] if self.b < self.t else 0
        return 0

    def parity_terms(self, slot: int, j: int) -> Dict[Var, int]:
        """Source terms of parity j emitted at ``slot`` (zero coeffs omitted).

        Entries at negative slots are implicit zeros; they are included
        here and filtered by callers that zero-pad the stream start.
        """
        i = self.diag_of_parity(slot, j)
        terms: Dict[Var, int] = {}
        for e in range(self.t):
            c = self.entry_coeff(e, j)
            if c:
                terms[self.info_entry(i, e)] = c
        return terms

    def parity_value(self, slot: int, j: int, source: Sequence[Sequence[int]]) -> int:
        f = self.field
        acc = 0
        for (s_slot, sub), coeff in self.parity_terms(slot, j).items():
            if s_slot < 0:
                continue
            acc = f.add(acc, f.mul(coeff, source[s_slot][sub]))
        return acc


class ScoEncoder:
    """Streaming encoder; keeps only the source window the parities reach."""

    def __init__(self, codec: ScoCodec):
        self.codec = codec
        self._component = Component(codec)
        self._window: Deque[Tuple[int, ...]] = deque(
            maxlen=self._component.reach)

    def push(self, subs: Sequence[int]) -> ChannelSymbol:
        window = list(self._window) + [tuple(subs)]
        sym = _encode_rows(self.codec, self._component, window)[-1]
        self._window.append(window[-1])
        return sym


def _encode_rows(codec: ScoCodec, component: Component,
                 rows: Sequence[Sequence[int]]) -> List[ChannelSymbol]:
    """Channel symbols of consecutive source rows, the first at slot 0."""
    src = source_array(rows, codec.t, codec.field)
    t = codec.t
    return [ChannelSymbol(tuple(row[:t]), tuple(row[t:]))
            for row in encode_symbols([component], codec.field, src).tolist()]


def sco_encode_step(codec: ScoCodec, history: Sequence[Sequence[int]],
                    s_now: Sequence[int]) -> ChannelSymbol:
    """One encoder step: emit (s_now, parities) given the prior source window.

    ``history`` holds the source symbols before the current slot; only
    the last ``memory_bound`` are read, and earlier time is zero-padded.
    """
    comp = Component(codec)
    window = list(history[max(0, len(history) - comp.reach):]) + [s_now]
    return _encode_rows(codec, comp, window)[-1]


def encode_stream(codec: ScoCodec, source: Sequence[Sequence[int]]) -> List[ChannelSymbol]:
    return _encode_rows(codec, Component(codec), source)


def sco_decode(codec: ScoCodec, received: Sequence[Optional[ChannelSymbol]],
               deadline: Optional[int] = None):
    """Decode a channel stream with erased slots (``None``).

    Returns (recovered stream, log).  The log records per-sub-symbol
    recovery times; a slot whose recovery exceeds ``deadline`` (default
    t*step) counts as a miss rather than an error.
    """
    if deadline is None:
        deadline = memory_bound(codec.params)
    flat = [None if x is None else (tuple(x.subs) + tuple(x.parities))
            for x in received]
    values, times, trace = staged_decode(
        [Component(codec)], codec.field, codec.t, codec.b, flat)
    horizon = len(received)
    stream = [[values.get((t, k)) for k in range(codec.t)] for t in range(horizon)]
    log = StreamLog(horizon=horizon, n_subs=codec.t, deadline=deadline,
                    sub_times=times, trace=trace)
    return stream, log
