"""Streaming codecs: single-user, and two-user diversity-embedded.

``CombinedCodec`` is the one codec class.  Its parity stream is the sum
of one or more component codes' parity streams, each delayed by its
shift; a single-user code (``sco_build``) is one component at shift 0.

A base streaming code C1 serves the strong receiver (burst b1, delay t1).
A second code C2 of the same rate family runs along reversed diagonals;
its parity stream is delayed by t1 + b1 slots and added onto C1's, so
the combined stream has exactly the width of a single-user stream.  The
strong receiver decodes as if C2 were absent, while a weak receiver
tolerating bursts up to b2 = alpha*b1 decodes with the minimum possible
delay T2 = ceil(alpha*t1) + b1.  Both run one and the same decode here;
a user's deadline (``CombinedCodec.deadline``) only decides its misses.
Bursts of at most b_u slots with G_u or more received slots between
them meet user u's deadline, G1 = t1 and G2 = T2 - b1, and two of b_u
one slot closer miss: the tests hold every code of their grid to it.

Rational ratios alpha = a/b are handled by building the construction on
a pseudo-expanded clock with n expanded slots per stream slot, n chosen
as the smallest integer making n*alpha*t1 an integer.  Each ``Component``
folds that clock into its templates, so encoding and decoding run on
stream slots only: a channel symbol is the subs_per_slot source
sub-symbols followed by the parities_per_slot combined parities, at
every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .bebc import BurstParityMatrix, verify_burst_correcting
from .decoder import (Component, ShapeEngine, StreamLog, encode_symbols,
                      staged_decode)
from .gf import GF, default_field
from .sco import MAIN, OFF, ScoCodec, ScoParams, memory_bound, require_ints
from .wire import check_stream


def optimal_delay(b: int, t: int, alpha: Fraction) -> int:
    """Minimum weak-receiver delay: alpha*t + b, rounded up if fractional."""
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if (alpha * b).denominator != 1:
        raise ValueError("alpha * b must be an integer")
    return math.ceil(alpha * t + b)


def rate_upper_bound(b1: int, b2: int, t2: int, t1: Optional[int] = None) -> Fraction:
    """Largest rate any code with these burst/delay targets can achieve.

    High-delay regime (t2 >= t1 + b1, the default when t1 is omitted):
    1 - b2 / (b2 - b1 + t2).  If t1 is supplied and t2 < t1 + b1, the
    low-delay bound t1 / (t1 + b2) applies instead.
    """
    if b2 <= b1:
        raise ValueError("need b2 = alpha * b1 with alpha > 1")
    if t1 is not None and t2 < t1 + b1:
        return Fraction(t1, t1 + b2)
    return 1 - Fraction(b2, b2 - b1 + t2)


@dataclass(frozen=True)
class DeScoParams:
    """Two-user code parameters with ratio alpha = a/b (coprime, a > b >= 1)."""

    b1: int
    t1: int
    a: int
    b: int = 1

    def __post_init__(self):
        require_ints(b1=self.b1, t1=self.t1, a=self.a, b=self.b)
        if not 1 <= self.b < self.a:
            raise ValueError("need a > b >= 1")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("a and b must be coprime")
        if not 1 <= self.b1 <= self.t1:
            raise ValueError("need 1 <= b1 <= t1")
        if self.b1 % self.b:
            raise ValueError("b1 must be divisible by b")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.a, self.b)

    @property
    def b2(self) -> int:
        return self.a * self.b1 // self.b

    @property
    def expansion(self) -> int:
        """Expanded slots per stream slot (1 when b divides t1)."""
        return self.b // math.gcd(self.b, self.t1)

    @property
    def base_size(self) -> Tuple[int, int]:
        """(b0, t0) = (n*b1/b, n*t1/b): burst and delay of the base code
        that both components interleave on the expanded clock."""
        n = self.expansion
        return n * self.b1 // self.b, n * self.t1 // self.b

    @property
    def delta(self) -> int:
        """Parity-stream shift in expanded slots."""
        return self.expansion * (self.t1 + self.b1)

    @property
    def user2_deadline(self) -> int:
        return optimal_delay(self.b1, self.t1, self.alpha)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.t1, self.t1 + self.b1)


class CombinedCodec:
    """Streaming codec whose parity stream sums one or more component codes.

    A single-user code is one component at shift 0; the two-user codecs
    add a second component whose parities are delayed by its shift.  The
    components share one expansion, which their templates fold into
    stream slots (see ``Component``).  A channel symbol per stream slot
    is its ``subs_per_slot`` source sub-symbols followed by its
    ``parities_per_slot`` combined parities.  ``deadlines[u - 1]`` is
    user u's delay target in stream slots.
    """

    def __init__(self, components: Sequence[Component],
                 deadlines: Sequence[int]):
        first = components[0]
        if any((c.codec.field, c.codec.t, c.codec.b, c.expansion)
               != (first.codec.field, first.codec.t, first.codec.b,
                   first.expansion) for c in components):
            raise ValueError(
                "components must share field, base size and expansion")
        self.components = list(components)
        self.deadlines = tuple(deadlines)
        self.field = first.codec.field
        self.subs_per_slot = first.expansion * first.codec.t
        self.parities_per_slot = len(first.templates)
        self.symbol_width = self.subs_per_slot + self.parities_per_slot
        # stream slots covering the widest template reach: a parity never
        # reads source older than this many slots back
        self.reach_slots = max(comp.reach for comp in self.components)

    def deadline(self, user: int) -> int:
        """Delay target of ``user``; ValueError names the valid users."""
        if not 1 <= user <= len(self.deadlines):
            raise ValueError(f"user must be in 1..{len(self.deadlines)}")
        return self.deadlines[user - 1]

    @property
    def user2_deadline(self) -> int:
        return self.deadline(2)

    # -- encoding -------------------------------------------------------

    def encode_stream(self, source: np.ndarray) -> np.ndarray:
        """Channel symbols of an (n_slots, subs_per_slot) source array,
        checked by ``check_stream``: row t is source row t followed by slot
        t's combined parities, at the field's dtype (the wire's width)."""
        check_stream(source, self.field, self.subs_per_slot)
        return encode_symbols(self.components, self.field, source)

    # -- decoding -------------------------------------------------------

    def decode(self, symbols: np.ndarray, erased: np.ndarray):
        """Decode a received stream once, for every user.

        ``symbols`` is the (n_slots, symbol_width) integer array received
        and ``erased`` the (n_slots,) bool mask of its lost rows, never
        read; ``check_stream`` refuses anything else.  Returns (recovered,
        log): recovered is the (n_slots, subs_per_slot) source array, 0
        wherever ``log.sub_times`` is -1 (never recovered), and
        ``log.misses(self.deadline(u))`` lists user u's misses.
        """
        recovered, times, trace = staged_decode(
            self.components, self.field, self.subs_per_slot,
            self.parities_per_slot, symbols, erased)
        return recovered, StreamLog(times, trace)


class DeScoCodec(CombinedCodec):
    """Diversity-embedded codec: reversed-diagonal C2, parity shift t1+b1."""

    def __init__(self, params: DeScoParams, field: Optional[GF] = None,
                 h: Optional[BurstParityMatrix] = None):
        self.params = params
        n = params.expansion
        b0, t0 = params.base_size
        if field is None:
            field = default_field(t0, b0)
        c1 = ScoCodec(ScoParams(b0, t0, step=params.b, orientation=MAIN,
                                field=field), h)
        c2 = ScoCodec(ScoParams(b0, t0, step=params.a - params.b,
                                orientation=OFF, field=field), h or c1.h)
        super().__init__([Component(c1, 0, n), Component(c2, params.delta, n)],
                         (params.t1, params.user2_deadline))


def sco_build(params: ScoParams) -> CombinedCodec:
    """Single-user streaming code: one component, deadline t * step."""
    return CombinedCodec([Component(ScoCodec(params))],
                         (memory_bound(params),))


def ia_sco_build(b1: int, t1: int, alpha: int,
                 field: Optional[GF] = None) -> CombinedCodec:
    """Interference-avoidance baseline: forward-diagonal C2, parity shift t1.

    The embedded code is the (alpha*b1, alpha*t1) interleaved code; the
    weak receiver's delay is alpha*t1 + t1, worse than the embedded
    construction's alpha*t1 + b1 whenever b1 < t1.
    """
    require_ints(alpha=alpha)
    if alpha < 2:
        raise ValueError("alpha must be an integer >= 2")
    if field is None:
        field = default_field(t1, b1)
    c1 = ScoCodec(ScoParams(b1, t1, field=field))
    c2 = ScoCodec(ScoParams(b1, t1, step=alpha, field=field), c1.h)
    return CombinedCodec([Component(c1), Component(c2, t1)],
                         (t1, alpha * t1 + t1))


# -- isolated bursts ----------------------------------------------------


def burst_decode_log(codec: CombinedCodec, length: int) -> np.ndarray:
    """(length, subs_per_slot) recovery times of one burst of ``length``
    slots at slot 0, -1 for a sub-symbol never recovered: one
    ``ShapeEngine`` run of "length erased, then ``reach_slots``
    received" on zero windows.  Recovery is structural and alike at
    every start (``decoder``), so the times hold for any content, plus s
    at start s.  ValueError names a negative length.
    """
    if length < 0:
        raise ValueError(f"burst length must be >= 0, got {length}")
    n_subs, n_par = codec.subs_per_slot, codec.parities_per_slot
    times = np.full((length, n_subs), -1)
    if length:
        reach = codec.reach_slots
        rows = 2 * reach + length  # reach rows before the shape's own
        engine = ShapeEngine(codec.components, codec.field, n_subs, n_par)
        events, _ = engine.run(b"\x01" * length + b"\x00" * reach,
                               [0] * (rows * n_subs), [0] * (rows * n_par),
                               np.zeros(1, dtype=np.int64))
        for slot, sub, time, *_ in events:
            times[slot, sub] = time
    return times


def burst_outcomes(codec: CombinedCodec, lengths: Iterable[int]
                   ) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
    """{length: (worst delay, misses)} of one isolated burst of each
    length: the longest recovery delay of a slot it erases (0 if none is
    recovered after its own slot), and user u's deadline misses at entry
    u - 1, the slots recovered late or never: one ``burst_decode_log``
    per distinct length, which holds for the burst at any start.
    """
    outcomes: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    for length in sorted(set(lengths)):
        # a slot is known with its last sub-symbol, never if one is not
        delays = [max(row) - slot if min(row) >= 0 else math.inf
                  for slot, row in enumerate(
                      burst_decode_log(codec, length).tolist())]
        outcomes[length] = (
            max((d for d in delays if d < math.inf), default=0),
            tuple(sum(d > deadline for d in delays)
                  for deadline in codec.deadlines))
    return outcomes


# -- codec descriptor ---------------------------------------------------


def descriptor(codec: DeScoCodec) -> str:
    """Text block (key=value lines) reconstructing the codec bit-exactly."""
    p = codec.params
    rows = ",".join("-".join(format(v, "x") for v in row)
                    for row in codec.components[0].codec.h.rows)
    lines = [f"b1={p.b1}", f"t1={p.t1}", f"a={p.a}", f"b={p.b}",
             f"field={codec.field.degree}", f"h={rows}"]
    return "\n".join(lines) + "\n"


def parse_descriptor(text: str) -> DeScoCodec:
    """The codec a ``descriptor`` text names.  ValueError names a key
    that is unknown, repeated, missing or not an integer."""
    kv: Dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad descriptor line: {line!r}")
        k, v = map(str.strip, line.split("=", 1))
        if k not in ("b1", "t1", "a", "b", "field", "h"):
            raise ValueError(f"descriptor has an unknown key {k!r}")
        if k in kv:
            raise ValueError(f"descriptor key {k} is repeated")
        kv[k] = v

    def num(key: str, value: str, base: int = 10) -> int:
        try:
            return int(value, base)
        except ValueError:
            raise ValueError(f"descriptor key {key} holds {value!r}, "
                             "not an integer") from None
    try:
        params = DeScoParams(*(num(k, kv[k]) for k in ("b1", "t1", "a")),
                             num("b", kv.get("b", "1")))
        field = GF(num("field", kv["field"]))
    except KeyError as exc:
        raise ValueError(f"descriptor missing key {exc}") from exc
    h = None
    if kv.get("h"):
        rows = tuple(tuple(num("h", x, 16) for x in row.split("-"))
                     for row in kv["h"].split(","))
        b0, t0 = params.base_size
        h = BurstParityMatrix(rows, t0, b0, field)
        if not verify_burst_correcting(h):
            raise ValueError(f"descriptor h={kv['h']} does not correct "
                             f"every burst of {b0} erasures")
    return DeScoCodec(params, field, h)
